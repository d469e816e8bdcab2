"""Shipped fixtures: canonical JSON files generated from `models`.

The files under fixtures/ are the single source the command line resolves
bare names against; fixture_text regenerates the identical bytes from the
model builders, and the test suite holds the two together.
"""

from __future__ import annotations

from importlib import resources

from . import models
from .serialization import (canonical_json, hodge_structure_to_json, orbifold_to_json,
                            pmhs_to_json, polytope_to_json)
from .toric import LatticePolytope


def _polytope(verts):
    return polytope_to_json(LatticePolytope(len(verts[0]), list(verts)))


def _pmhs_no_samples(data):
    return pmhs_to_json({**data, "samples": None})


FIXTURE_BUILDERS = {
    "p11226": lambda: _polytope(models.P11226_VERTICES),
    "p11133": lambda: _polytope(models.P11133_VERTICES),
    "square": lambda: _polytope(models.SQUARE_VERTICES),
    "p1": lambda: _pmhs_no_samples(models.p1_degeneration()),
    "p1_negQ": lambda: _pmhs_no_samples(models.p1_degeneration(flip_form=True)),
    "p1xp1": lambda: orbifold_to_json(models.p1xp1_model()),
    "p2": lambda: orbifold_to_json(models.projective_space_model(2)),
    "kummer": lambda: orbifold_to_json(models.kummer_model()),
    "torus_h1": lambda: hodge_structure_to_json(*models.torus_weight_one()),
}


def shipped_names() -> list:
    return sorted(FIXTURE_BUILDERS)


def fixture_json(name: str) -> dict:
    return FIXTURE_BUILDERS[name]()


def fixture_text(name: str) -> str:
    return canonical_json(fixture_json(name))


def shipped_text(name: str) -> str:
    """The file as shipped (what the CLI resolves bare names to)."""
    return (resources.files("orbhodge") / "fixtures" / f"{name}.json").read_text()
