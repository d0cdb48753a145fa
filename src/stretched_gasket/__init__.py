"""Stretched Sierpinski gasket: harmonic coordinates, energy forms, measures.

The package builds the level-l prefractal of a gasket whose three
contractions are stretched by a per-level sequence, joined by straight
cables; assembles the associated quadratic form (triangle part plus
cable part, with exact limit weights when the stretch sequence has a
convergent tail product); verifies discrete harmonicity of affine
coordinates; computes cylinder measures through a transfer operator in
matrix space; and evaluates a measurable Laplacian with integration by
parts diagnostics.  The form has one normalization: triangle edges and
cables share the constant a = b = 1/3 (``params.A``), the value that
makes the cell masses a probability vector on every level.
"""

from .params import ExpTail, ParamSeq, seq_from_mapping
from .errors import (
    DegenerateCable,
    DepthCapExceeded,
    GasketError,
    NonHarmonicError,
    PolyParseError,
    StarNotClosed,
    TailProductZero,
    TermOverflow,
)
from .geometry import (
    HARMONIC_RATIO,
    base_vertices,
    barycenter,
    cable_prefactor,
    cable_prefactor_limit,
    cable_segments,
    compose,
    prefractal_edges,
    triangle_edge_prefactor,
    triple,
    word_index,
    word_point,
    word_table,
)
from .scalarfield import (
    Poly2,
    affine,
    corner_values,
    parse,
    sup_bounds,
    to_string,
    vanishes_at_corners,
    vanishing_at_ABC,
    vanishing_cubic,
)
from .energy import (
    EnergyReport,
    cable_tail_bound,
    convergence_rows,
    energy1,
    energy2_limit,
    energy_total,
    recurrence_residual,
    selfsimilar_residual,
)
from .harmonicity import (
    HarmonicityReport,
    harmonic_report,
    harmonic_residual,
    nd_gamma,
    nd_gamma_of,
    vertex_stars,
    weak_pairing,
)
from .kusuoka import (
    CableMass,
    CylinderMass,
    cable_mass,
    cable_masses,
    energy_via_measure,
    gibbs_tau,
    kappa,
    kappa_table,
    perron,
    perron_report,
    ruelle_apply,
    tau_table,
)
from .laplacian import LaplacianSample, ibp_table, laplacian_samples, teplyaev

__version__ = "0.1.0"

__all__ = [
    "CableMass",
    "CylinderMass",
    "DegenerateCable",
    "DepthCapExceeded",
    "EnergyReport",
    "ExpTail",
    "GasketError",
    "HARMONIC_RATIO",
    "HarmonicityReport",
    "LaplacianSample",
    "NonHarmonicError",
    "ParamSeq",
    "Poly2",
    "PolyParseError",
    "StarNotClosed",
    "TailProductZero",
    "TermOverflow",
    "affine",
    "base_vertices",
    "cable_mass",
    "cable_masses",
    "cable_tail_bound",
    "convergence_rows",
    "corner_values",
    "energy1",
    "energy2_limit",
    "energy_total",
    "energy_via_measure",
    "gibbs_tau",
    "harmonic_report",
    "harmonic_residual",
    "ibp_table",
    "barycenter",
    "cable_prefactor",
    "cable_prefactor_limit",
    "cable_segments",
    "compose",
    "kappa",
    "kappa_table",
    "laplacian_samples",
    "nd_gamma",
    "nd_gamma_of",
    "parse",
    "perron",
    "perron_report",
    "prefractal_edges",
    "recurrence_residual",
    "ruelle_apply",
    "selfsimilar_residual",
    "seq_from_mapping",
    "sup_bounds",
    "tau_table",
    "teplyaev",
    "to_string",
    "triangle_edge_prefactor",
    "triple",
    "vanishes_at_corners",
    "vanishing_at_ABC",
    "vanishing_cubic",
    "vertex_stars",
    "weak_pairing",
    "word_index",
    "word_point",
    "word_table",
]
