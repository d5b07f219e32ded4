import itertools

from knots import FIXTURES, components, inline, seeded_knots


def take(n, workload, seed, k=6):
    return list(itertools.islice(seeded_knots(n, workload, seed), k))


def test_same_seed_same_grids_other_seed_other_grids():
    assert take(7, "hat-z-n7", 3) == take(7, "hat-z-n7", 3)
    assert take(7, "hat-z-n7", 3) != take(7, "hat-z-n7", 4)
    assert take(5, "poset-n5", 3) != take(5, "minus-z-n5", 3)


def test_seeded_grids_are_knot_grids():
    for n, x, o in take(6, "w", 0, 20):
        assert sorted(x) == sorted(o) == list(range(n))
        assert all(a != b for a, b in zip(x, o))
        assert components(x, o) == 1


def test_components_counts_link_components():
    # X on the diagonal, O shifted by s: gcd(n, s) components.
    assert components((0, 1, 2, 3), (2, 3, 0, 1)) == 2
    assert components((0, 1, 2, 3, 4, 5), (2, 3, 4, 5, 0, 1)) == 2
    assert components((0, 1, 2, 3, 4), (2, 3, 4, 0, 1)) == 1
    for facts in FIXTURES.values():
        assert components(*facts["grid"][1:]) == 1


def test_inline_form():
    assert inline((3, (0, 1, 2), (1, 2, 0))) == "3;X=0,1,2;O=1,2,0"
