"""The auxiliary group at rho = 5, handled through its cosets.

The full group (9,999,360 elements) is never materialized.  It is covered by
the cosets of the doubled rho = 4 subgroup: coset detection uses invariants
of the doubled form (image of the top point, preimage of the lower half, and
conjugated mirror), each candidate verified exactly by a subgroup-membership
lookup, so a hash collision between distinct cosets cannot miscount.
"""

from __future__ import annotations

from functools import lru_cache

from pencilgraphs import hrho


def _mirror_invariants(p: bytes):
    n = len(p) - 1
    half = (n + 1) // 2
    inv = hrho.inverse(p)
    pos_top = inv[n]
    lower_pre = frozenset(inv[x] for x in range(1, half))
    iota = tuple(
        inv[n ^ p[x]] if p[x] != n else 0 for x in range(1, n + 1)
    )
    return (pos_top, lower_pre, iota)


@lru_cache(maxsize=1)
def _k_set(rho: int) -> frozenset[bytes]:
    return hrho.doubled_subgroup(rho)


def coset_reps_heavy(rho: int) -> list[bytes]:
    """One representative per left coset of the doubled subgroup."""
    K = _k_set(rho)
    gens = [g for _, _, g in hrho.generators(rho)]
    ident = hrho.identity(rho)
    reps: dict[tuple, list[bytes]] = {_mirror_invariants(ident): [ident]}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = hrho.compose(g, s)
                key = _mirror_invariants(h)
                bucket = reps.get(key)
                if bucket is None:
                    reps[key] = [h]
                    nxt.append(h)
                    continue
                if any(
                    hrho.compose(hrho.inverse(r), h) in K for r in bucket
                ):
                    continue
                bucket.append(h)  # genuine collision of invariants
                nxt.append(h)
        frontier = nxt
    out = [r for bucket in reps.values() for r in bucket]
    expected = hrho.coset_index_formula(rho)
    if len(out) != expected:
        raise hrho.HrhoError(
            f"found {len(out)} cosets, expected {expected}"
        )
    return out


def census_heavy(rho: int):
    """Super-type census over all cosets, distances via the fixed-point law."""
    import numpy as np

    K = hrho.build_group(rho - 1)
    doubled = np.array(
        [list(hrho.doubling(p)) for p in K.elements], dtype=np.uint8
    )
    reps = coset_reps_heavy(rho)
    n = (1 << rho) - 1
    ident = np.arange(n + 1, dtype=np.uint8)
    census: dict[tuple, tuple[int, int]] = {}
    for r in reps:
        rarr = np.frombuffer(r, dtype=np.uint8)
        batch = rarr[doubled]  # apply doubled element, then the rep
        lens = np.zeros_like(batch)
        cur = batch.copy()
        for k in range(1, n + 1):
            hit = (cur == ident) & (lens == 0)
            lens[hit] = k
            if lens[:, 1:].all():
                break
            cur = np.take_along_axis(batch, cur, axis=1)
        lens = lens[:, 1:]
        sigs, counts = np.unique(lens, axis=0, return_counts=True)
        for sig, cnt in zip(sigs, counts):
            st = []
            fixed = 0
            for ell in range(1, n + 1):
                pts = int((sig == ell).sum())
                if pts == 0:
                    continue
                if ell == 1:
                    fixed = pts
                    continue
                st.append((ell, pts // ell))
            key = tuple(st) if st else ((1, 1),)
            d = rho - (1 + fixed).bit_length() + 1
            if key in census:
                d0, c0 = census[key]
                if d0 != d:
                    raise hrho.HrhoError("distance not constant per super-type")
                census[key] = (d0, c0 + int(cnt))
            else:
                census[key] = (d, int(cnt))
    return census


def verify_category_cosets_heavy(rho: int) -> dict[str, int]:
    """a/b/c representatives lie in pairwise distinct cosets (big rho)."""
    K = _k_set(rho)
    reps = hrho.category_reps(rho)
    flat: list[tuple[str, bytes]] = []
    for cat, lst in reps.items():
        flat += [(cat, g) for g in lst]
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            if hrho.compose(hrho.inverse(flat[i][1]), flat[j][1]) in K:
                raise hrho.HrhoError(
                    f"coset collision: {flat[i][0]} vs {flat[j][0]}"
                )
    return {cat: len(lst) for cat, lst in reps.items()}
