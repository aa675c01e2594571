"""Structure search algorithms: exact, substructure, similarity.

These are the "complex operations on in-memory data structures" the
paper notes dominate chemistry query time (§3.2.4) — identical for the
LOB-resident and file-resident index, which is why the two storage
models end up with comparable query performance.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cartridges.chemistry.fingerprint import fingerprint, tanimoto
from repro.cartridges.chemistry.molecule import (
    Molecule, certificate)


def full_match(molecule: Molecule, query: Molecule,
               query_certificate: Optional[str] = None) -> bool:
    """Exact (full-structure) match via canonical certificates.

    ``query_certificate`` is ``certificate(query)`` when the caller has
    it already (a scan tests many candidates against one query)."""
    if (molecule.atom_count != query.atom_count
            or molecule.bond_count != query.bond_count):
        return False
    if query_certificate is None:
        query_certificate = certificate(query)
    return certificate(molecule) == query_certificate


def similarity(molecule: Molecule, query: Molecule) -> float:
    """Tanimoto similarity of the two path fingerprints."""
    return tanimoto(fingerprint(molecule), fingerprint(query))


def substructure_match(pattern: Molecule, molecule: Molecule) -> bool:
    """Subgraph-monomorphism test: does ``molecule`` contain ``pattern``?

    Pattern atoms map injectively to molecule atoms with equal element
    symbols; every pattern bond must exist in the molecule with the same
    order (extra molecule bonds are allowed).  Backtracking with a
    most-constrained-first variable order.
    """
    if pattern.atom_count > molecule.atom_count \
            or pattern.bond_count > molecule.bond_count:
        return False
    p_adj = pattern.neighbors()
    m_adj = molecule.neighbors()

    # order pattern atoms so each (after the first) touches a previous one
    order = _connected_order(pattern, p_adj)
    mapping = [-1] * pattern.atom_count
    used = [False] * molecule.atom_count

    def candidates(p_atom: int) -> Sequence[int]:
        # if some earlier-mapped neighbour exists, restrict to its adjacency
        for neighbor, bond in p_adj[p_atom]:
            if mapping[neighbor] >= 0:
                return [m for m, m_order in m_adj[mapping[neighbor]]
                        if m_order == bond]
        return range(molecule.atom_count)

    def feasible(p_atom: int, m_atom: int) -> bool:
        if used[m_atom]:
            return False
        if pattern.atoms[p_atom] != molecule.atoms[m_atom]:
            return False
        if len(p_adj[p_atom]) > len(m_adj[m_atom]):
            return False
        for neighbor, bond in p_adj[p_atom]:
            mapped = mapping[neighbor]
            if mapped >= 0 and molecule.bond_order(m_atom, mapped) != bond:
                return False
        return True

    def backtrack(position: int) -> bool:
        if position == len(order):
            return True
        p_atom = order[position]
        for m_atom in candidates(p_atom):
            if feasible(p_atom, m_atom):
                mapping[p_atom] = m_atom
                used[m_atom] = True
                if backtrack(position + 1):
                    return True
                mapping[p_atom] = -1
                used[m_atom] = False
        return False

    return backtrack(0)


def _connected_order(pattern: Molecule, p_adj) -> List[int]:
    seen = [False] * pattern.atom_count
    order: List[int] = []
    # start at the highest-degree atom (most constrained)
    start = max(range(pattern.atom_count), key=lambda i: len(p_adj[i]))
    stack = [start]
    seen[start] = True
    while stack:
        atom = stack.pop()
        order.append(atom)
        for neighbor, __ in sorted(p_adj[atom],
                                   key=lambda e: -len(p_adj[e[0]])):
            if not seen[neighbor]:
                seen[neighbor] = True
                stack.append(neighbor)
    # disconnected pattern pieces (rare) go last, in index order
    for i in range(pattern.atom_count):
        if not seen[i]:
            order.append(i)
    return order


def nearest_neighbors(query: Molecule,
                      candidates: Sequence[Tuple[object, Molecule]],
                      k: int) -> List[Tuple[object, float]]:
    """Top-k (tag, similarity) pairs by Tanimoto, descending."""
    query_fp = fingerprint(query)
    scored = [(tag, tanimoto(fingerprint(mol), query_fp))
              for tag, mol in candidates]
    scored.sort(key=lambda pair: (-pair[1], str(pair[0])))
    return scored[:max(0, k)]
