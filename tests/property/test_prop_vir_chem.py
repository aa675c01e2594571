"""Property tests: VIR filter admissibility and chemistry invariants."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cartridges.chemistry.fingerprint import (
    fingerprint, screen_passes, tanimoto)
from repro.cartridges.chemistry.molecule import (
    Molecule, _hash64, _refine, certificate, parse_smiles, random_molecule,
    random_substructure, tautomer_key, to_smiles)
from repro.cartridges.chemistry.search import substructure_match
from repro.cartridges.vir.signature import (
    SIGNATURE_LENGTH, Weights, coarse_distance, coarse_vector,
    component_bound, signature_distance)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                 width=32)
signatures = st.lists(unit, min_size=SIGNATURE_LENGTH,
                      max_size=SIGNATURE_LENGTH).map(tuple)
weight_values = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


@st.composite
def weight_sets(draw):
    values = [draw(weight_values) for __ in range(4)]
    if sum(values) == 0:
        values[0] = 1.0
    return Weights(*values)


class TestVirAdmissibility:
    @given(signatures, signatures, weight_sets())
    @settings(max_examples=150, deadline=None)
    def test_coarse_distance_lower_bounds_true_distance(self, a, b, weights):
        coarse = coarse_distance(coarse_vector(a), coarse_vector(b), weights)
        true = signature_distance(a, b, weights)
        assert coarse <= true + 1e-6

    @given(signatures, signatures, weight_sets(),
           st.floats(min_value=0.1, max_value=60, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_phase1_radius_never_drops_a_match(self, a, b, weights,
                                               threshold):
        if signature_distance(a, b, weights) > threshold:
            return
        ca, cb = coarse_vector(a), coarse_vector(b)
        for i, weight in enumerate(weights.as_tuple()):
            if weight <= 0:
                continue
            assert abs(ca[i] - cb[i]) <= component_bound(
                threshold, weights, i) + 1e-6

    @given(signatures, weight_sets())
    @settings(max_examples=60, deadline=None)
    def test_distance_is_a_pseudometric(self, a, weights):
        assert signature_distance(a, a, weights) == 0

    @given(signatures, signatures, signatures, weight_sets())
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c, weights):
        ab = signature_distance(a, b, weights)
        bc = signature_distance(b, c, weights)
        ac = signature_distance(a, c, weights)
        assert ac <= ab + bc + 1e-6


molecule_seeds = st.integers(min_value=0, max_value=10_000)
molecule_sizes = st.integers(min_value=1, max_value=14)


def mol_from(seed, size):
    return random_molecule(random.Random(seed), size=size)


class TestChemistryInvariants:
    @given(molecule_seeds, molecule_sizes)
    @settings(max_examples=80, deadline=None)
    def test_writer_parser_roundtrip_preserves_identity(self, seed, size):
        mol = mol_from(seed, size)
        again = parse_smiles(to_smiles(mol))
        assert certificate(mol) == certificate(again)
        assert tautomer_key(mol) == tautomer_key(again)

    @given(molecule_seeds, molecule_sizes, st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_certificate_invariant_under_relabeling(self, seed, size, rng):
        mol = mol_from(seed, size)
        permutation = list(range(mol.atom_count))
        rng.shuffle(permutation)
        atoms = [None] * mol.atom_count
        for old, new in enumerate(permutation):
            atoms[new] = mol.atoms[old]
        bonds = frozenset(
            (min(permutation[i], permutation[j]),
             max(permutation[i], permutation[j]), order)
            for i, j, order in mol.bonds)
        relabeled = Molecule(tuple(atoms), bonds)
        assert certificate(mol) == certificate(relabeled)
        assert fingerprint(mol) == fingerprint(relabeled)

    @given(molecule_seeds, molecule_sizes,
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=80, deadline=None)
    def test_screening_soundness(self, seed, size, sub_size):
        """substructure_match ⇒ screen passes (the Daylight property)."""
        rng = random.Random(seed)
        mol = random_molecule(rng, size=size)
        sub = random_substructure(rng, mol, size=sub_size)
        assert substructure_match(sub, mol)
        assert screen_passes(fingerprint(sub), fingerprint(mol))

    @given(molecule_seeds, molecule_sizes)
    @settings(max_examples=60, deadline=None)
    def test_tautomer_key_coarser_than_certificate(self, seed, size):
        mol = mol_from(seed, size)
        skeleton = mol.skeleton()
        assert tautomer_key(mol) == tautomer_key(skeleton)

    @given(molecule_seeds, molecule_seeds, molecule_sizes)
    @settings(max_examples=60, deadline=None)
    def test_tanimoto_bounds_and_identity(self, seed_a, seed_b, size):
        a = fingerprint(mol_from(seed_a, size))
        b = fingerprint(mol_from(seed_b, size))
        assert 0.0 <= tanimoto(a, b) <= 1.0
        assert tanimoto(a, a) == 1.0

    @given(molecule_seeds, molecule_sizes)
    @settings(max_examples=40, deadline=None)
    def test_self_substructure(self, seed, size):
        mol = mol_from(seed, size)
        assert substructure_match(mol, mol)


# -- colour refinement against the full-rounds reference ---------------------

def reference_labels(molecule):
    """Format version 1's refinement: ``atom_count`` rounds, always (its
    early-exit test compared round-k hashes with round-(k-1) hashes and
    never fired, so it is left out here)."""
    adjacency = molecule.neighbors()
    labels = [f"{symbol}/{len(adjacency[i])}"
              for i, symbol in enumerate(molecule.atoms)]
    for __ in range(max(1, molecule.atom_count)):
        new_labels = []
        for i in range(molecule.atom_count):
            neighborhood = sorted(f"{order}:{labels[j]}"
                                  for j, order in adjacency[i])
            new_labels.append(
                f"{_hash64(labels[i] + '|' + ';'.join(neighborhood)):016x}")
        labels = new_labels
    return labels


def reference_certificate(molecule):
    labels = reference_labels(molecule)
    edge_labels = sorted(
        f"{order}:{min(labels[i], labels[j])}-{max(labels[i], labels[j])}"
        for i, j, order in molecule.bonds)
    body = ",".join(sorted(labels)) + "#" + ",".join(edge_labels)
    return f"{molecule.atom_count}:{molecule.bond_count}:{_hash64(body):016x}"


def partition(labels):
    """The atom classes a labelling induces, independent of label values."""
    classes = {}
    for atom, label in enumerate(labels):
        classes.setdefault(label, set()).add(atom)
    return {frozenset(members) for members in classes.values()}


def relabel(molecule, permutation):
    atoms = [None] * molecule.atom_count
    for old, new in enumerate(permutation):
        atoms[new] = molecule.atoms[old]
    return Molecule(tuple(atoms), frozenset(
        (min(permutation[i], permutation[j]),
         max(permutation[i], permutation[j]), order)
        for i, j, order in molecule.bonds))


def isomorphic(a, b):
    """Brute force over every atom mapping (small molecules only)."""
    if sorted(a.atoms) != sorted(b.atoms) or a.bond_count != b.bond_count:
        return False
    return any(relabel(a, permutation) == b for permutation in
               itertools.permutations(range(a.atom_count)))


small_sizes = st.integers(min_value=1, max_value=6)


class TestRefinement:
    @given(molecule_seeds, molecule_sizes, st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_partition_matches_the_full_rounds_reference(self, seed, size,
                                                         rng):
        mol = mol_from(seed, size)
        permutation = list(range(mol.atom_count))
        rng.shuffle(permutation)
        relabeled = relabel(mol, permutation)
        for molecule in (mol, relabeled, mol.skeleton()):
            labels, __ = _refine(molecule)
            assert partition(labels) == partition(reference_labels(molecule))
        moved = {frozenset(permutation[atom] for atom in members)
                 for members in partition(_refine(mol)[0])}
        assert partition(_refine(relabeled)[0]) == moved

    @given(molecule_seeds, molecule_seeds, small_sizes, small_sizes)
    @settings(max_examples=150, deadline=None)
    def test_certificate_equality_agrees_with_the_reference(
            self, seed_a, seed_b, size_a, size_b):
        # small sizes, so equal pairs turn up as well as unequal ones
        a, b = mol_from(seed_a, size_a), mol_from(seed_b, size_b)
        assert (certificate(a) == certificate(b)) \
            == (reference_certificate(a) == reference_certificate(b))
        assert (tautomer_key(a) == tautomer_key(b)) \
            == (reference_certificate(a.skeleton())
                == reference_certificate(b.skeleton()))

    @given(molecule_seeds, molecule_seeds,
           st.integers(min_value=2, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_tautomer_keys_differ_exactly_when_skeletons_do(
            self, seed_a, seed_b, size):
        a, b = mol_from(seed_a, size), mol_from(seed_b, size)
        assert (tautomer_key(a) == tautomer_key(b)) \
            == isomorphic(a.skeleton(), b.skeleton())

    def test_refinement_stops_at_the_fixpoint(self):
        """The work claim: refinement ends when a round adds no distinct
        label, not after one round per atom."""
        for size in (10, 12):
            rng = random.Random(size)
            molecules = [random_molecule(rng, size=size)
                         for __ in range(100)]
            rounds = [_refine(molecule)[1] for molecule in molecules]
            assert sum(rounds) / len(rounds) <= 4, size
