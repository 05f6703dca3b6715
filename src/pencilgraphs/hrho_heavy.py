"""The auxiliary group at rho = 5, handled through its cosets.

The full group (9,999,360 elements) is never materialized.  It is covered by
the left cosets g*K of the doubled subgroup K, one representative each, found
by a breadth-first walk over the generators p(Q, a).

Each coset has an exact label, not a hash.  Every p(Q, a) is GF(2)-linear
(it fixes the hyperplane Q and adds a to the points off it), so H lies in
GL(rho, 2).  Let n be the top point and L the hyperplane of the points below
2^(rho-1).  The stabilizer of the pair (n, L) in GL(rho, 2) acts as any
element of GL(L) = GL(rho-1, 2) on L and fixes n: that is the doubled
GL(rho-1, 2), which is K.  By orbit-stabilizer, g and h therefore lie in one
left coset of K exactly when g^-1(n) = h^-1(n) and g^-1(L) = h^-1(L).  The
label ``h.translate(_label_table(rho))`` marks each point x by whether h(x)
is n, lies in L, or neither, so it encodes both preimages in one bytes object.

The walk reads the label of a product g * t as ``g.translate(lt)``, with
``lt = t.translate(label)`` precomposed per generator table t, and forms the
product only for a new label.  Before the walk, the argument is certified
once, and a failed check raises HrhoError: (i) every generator is linear, so
a label is a hyperplane and a point off it, at most ``coset_index_formula``
of them; (ii) every doubled rho - 1 generator is a rho generator fixing the
label table, so K lies in H and in the stabilizer of (n, L); (iii)
``len(build_group(rho - 1))`` times that index is |GL(rho, 2)|, so K is the
stabilizer.  Equal labels then mean one coset of K in all of GL(rho, 2), and
the walk stops the moment it holds every label, as ``hrho.build_group``
stops at |GL(rho, 2)|; it raises if it ends with fewer.
"""

from __future__ import annotations

from pencilgraphs import hrho


def _label_table(rho: int) -> bytes:
    """Translate table: 1 on the points of L, 2 on the top point, else 0."""
    n = (1 << rho) - 1
    half = 1 << (rho - 1)
    return bytes(1 if 0 < y < half else 2 if y == n else 0 for y in range(256))


def coset_reps_heavy(rho: int) -> list[bytes]:
    """One representative per left coset of the doubled subgroup."""
    label = _label_table(rho)
    gens = [g for _, _, g in hrho.generators(rho)]
    for g in gens:
        hrho._check_linear(g)
    sub = hrho.build_group(rho - 1)
    gen_set = set(gens)
    for _, _, g in sub.generators:
        d = hrho.doubling(g)
        if d not in gen_set or d.translate(label) != label[:len(d)]:
            raise hrho.HrhoError(
                "a doubled generator is not a generator fixing the coset label"
            )
    expected = hrho.coset_index_formula(rho)
    if len(sub) * expected != hrho.group_order_formula(rho):
        raise hrho.HrhoError(
            "the doubled subgroup is not the stabilizer of the coset label"
        )
    tables = [hrho.translate_table(g) for g in gens]
    steps = [(t, t.translate(label)) for t in tables]  # see module docstring
    ident = hrho.identity(rho)
    seen = {ident.translate(label)}
    reps = [ident]  # grows while iterated: a breadth-first queue
    for g in reps:
        for t, lt in steps:
            key = g.translate(lt)
            if key not in seen:
                seen.add(key)
                reps.append(g.translate(t))
                if len(reps) == expected:
                    return reps
    raise hrho.HrhoError(f"found {len(reps)} cosets, expected {expected}")


def order_by_cosets(rho: int) -> tuple[int, int]:
    """(group order, coset index): the index times the certified order of K."""
    index = len(coset_reps_heavy(rho))
    return index * len(hrho.build_group(rho - 1)), index


def census_heavy(rho: int):
    """Super-type census over all cosets, distances via the fixed-point law.

    Per coset, each element's row of per-point cycle lengths becomes a row
    of how many points lie on cycles of each length (one ``np.bincount``).
    Those rows take only a dozen or so distinct values per coset, and only
    the distinct ones are turned into super-types in Python.
    """
    import numpy as np

    K = hrho.build_group(rho - 1)
    doubled = np.array(
        [list(hrho.doubling(p)) for p in K.elements], dtype=np.uint8
    )
    reps = coset_reps_heavy(rho)
    n = (1 << rho) - 1
    # Row i of a coset's elements lives at flat positions i*(n+1) .. i*(n+1)+n,
    # so one flat gather applies every element to its own row of points, and
    # cycle lengths land in bins of their own row.
    offsets = np.arange(len(doubled))[:, None] * (n + 1)
    start = np.arange(n + 1) + offsets
    row_bytes = np.dtype((np.void, n + 1))
    census: dict[tuple, tuple[int, int]] = {}
    for r in reps:
        rarr = np.frombuffer(r, dtype=np.uint8)
        batch = rarr[doubled]  # apply doubled element, then the rep
        step = (batch + offsets).ravel()
        lens = np.zeros_like(batch)
        cur = step.reshape(batch.shape)
        for k in range(1, n + 1):
            lens[(cur == start) & (lens == 0)] = k
            if lens[:, 1:].all():
                break
            cur = step[cur]
        hist = np.bincount(
            (lens[:, 1:] + offsets).ravel(), minlength=lens.size
        ).reshape(len(lens), n + 1).astype(np.uint8)
        _, first, counts = np.unique(
            hist.view(row_bytes).ravel(), return_index=True, return_counts=True
        )
        for i, cnt in zip(first, counts):
            row = hist[i].tolist()
            st = [(ell, pts // ell) for ell, pts in enumerate(row)
                  if ell > 1 and pts]
            key = tuple(st) if st else ((1, 1),)
            d = rho - (1 + row[1]).bit_length() + 1
            if key in census:
                d0, c0 = census[key]
                if d0 != d:
                    raise hrho.HrhoError("distance not constant per super-type")
                census[key] = (d0, c0 + int(cnt))
            else:
                census[key] = (d, int(cnt))
    return census
