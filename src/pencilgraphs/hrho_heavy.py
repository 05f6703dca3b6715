"""The auxiliary group at rho = 5, handled through its cosets.

The full group (9,999,360 elements) is never materialized.  It is covered by
the left cosets g*K of the doubled subgroup K, one representative each, found
by a breadth-first walk over the generators p(Q, a).  Its census needs no
walk: ``hrho.class_census`` sums over the conjugacy classes of GL(rho, 2).

Each coset has the exact label of ``hrho.certified_coset_label``, which
certifies once, before the walk, that equal labels mean one coset of K in
GL(rho, 2) (see the comment above ``hrho._label_table``).  The walk reads the
label of a product g * t as ``g.translate(lt)``, with ``lt =
t.translate(label)`` precomposed per generator table t, and forms the
product only for a new label.  It stops the moment it holds every label, as
``hrho.build_group`` stops at |GL(rho, 2)|, and raises if it ends with fewer.
"""

from __future__ import annotations

from pencilgraphs import hrho


def coset_reps_heavy(rho: int) -> list[bytes]:
    """One representative per left coset of the doubled subgroup."""
    label, gens = hrho.certified_coset_label(rho)
    expected = hrho.coset_index_formula(rho)
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
