"""The acceptance suite: every criterion runs exactly, no tolerances.

Each test delegates to the shared criterion implementation in
``ekcells.suite`` (also reachable through the ``paper-suite`` CLI subcommand)
and prints one pass/fail line.
"""

import pytest

from ekcells import topology
from ekcells.suite import (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
)
from ekcells.verification import VerificationError

RANDOM_COUNT = 200
CM_COUNT = 50
SEED = 20260810


def _run(number, description, fn, **kwargs):
    try:
        detail = fn(**kwargs)
    except Exception as exc:
        print(f"FAIL criterion {number}: {description} -- {exc}")
        raise
    print(f"PASS criterion {number}: {description} -- {detail}")


def test_criterion_1_degree2_balls():
    _run(1, "degree-2 CM ideal, both complexes ball-certified", criterion_1)


def test_criterion_2_two_triangles_refuted():
    _run(2, "two-triangle ideal refuted with trivial homology", criterion_2)


def test_criterion_3_square_triangle_split():
    _run(3, "square-triangle ideal: modified certified, classical refuted", criterion_3)


def test_criterion_4_posets_differ():
    _run(4, "degree-4 ideal: cell posets non-isomorphic", criterion_4)


def test_criterion_5_polarization_examples():
    _run(5, "introductory polarization and stairs diagrams", criterion_5)


def test_criterion_6_random_battery():
    _run(
        6,
        f"structural battery over {RANDOM_COUNT} random Borel ideals",
        criterion_6,
        count=RANDOM_COUNT,
        seed=SEED,
    )


def test_criterion_7_cm_battery():
    _run(
        7,
        f"CM battery with ball certification over {CM_COUNT} ideals",
        criterion_7,
        count=CM_COUNT,
        seed=SEED + 1,
    )


def test_criterion_2_reads_homology_off_the_frame_alone(monkeypatch):
    # the ball check's frame homology is criterion 2's only homology route:
    # it builds no barycentric chain complex, and a reported Betti number fails it
    built = []
    real = topology.simplicial_chain_complex

    def recorded(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(topology, "simplicial_chain_complex", recorded)
    criterion_2()
    monkeypatch.setattr(topology, "homology_ranks", lambda cplx: [(0, ()), (1, ())])
    with pytest.raises(VerificationError, match="exhaustive shelling failure alone"):
        criterion_2()
    assert not built
