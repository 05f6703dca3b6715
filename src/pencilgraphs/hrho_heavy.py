"""Cosets of the doubled subgroup K in the auxiliary group, one walk for
every rho >= 3.

The cosets g*K are found one representative each by a breadth-first walk
over the generators p(Q, a), so the group is never listed: at rho = 5 its
9,999,360 elements are covered by 496 representatives.  Its one caller,
``report.aux_group``, gives the coset index at every rho >= 3 to ``hrho``
and to the report; the order comes from Schreier-Sims, not from the index.
The census needs no walk: ``hrho.class_census`` sums over the conjugacy
classes of GL(rho, 2), with the distances of ``hrho.certified_distances``.

Each coset has the exact label of ``hrho.certified_coset_label``, which
certifies once per rho, before the walk and the report's category check,
that equal labels mean one coset of K in GL(rho, 2) (see the comment above
``hrho._label_table``).  The walk reads the label of a product g * t as
``g.translate(lt)``, with ``lt = t.translate(label)`` precomposed per
generator table t, and forms the product only for a new label.  Generators
with one label step give every g the same label, so only the first of them
in generator order is walked: 151 of the 465 generators at rho = 5 (43 of
105 at rho = 4), the same representatives in the same order, and about
1.5 ms for the rho = 5 walk on a 2-vCPU host.  The walk stops the moment it
holds every label, and raises if it ends with fewer.
"""

from __future__ import annotations

from pencilgraphs import hrho


def coset_reps_heavy(rho: int) -> list[bytes]:
    """One representative per left coset of the doubled subgroup."""
    label, gens = hrho.certified_coset_label(rho)
    expected = hrho.coset_index_formula(rho)
    steps: dict[bytes, bytes] = {}  # label step -> first generator table
    for g in gens:
        t = hrho.translate_table(g)
        steps.setdefault(t.translate(label), t)  # see module docstring
    ident = hrho.identity(rho)
    seen = {ident.translate(label)}
    reps = [ident]  # grows while iterated: a breadth-first queue
    for g in reps:
        for lt, t in steps.items():
            key = g.translate(lt)
            if key not in seen:
                seen.add(key)
                reps.append(g.translate(t))
                if len(reps) == expected:
                    return reps
    raise hrho.HrhoError(f"found {len(reps)} cosets, expected {expected}")
