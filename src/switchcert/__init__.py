"""Numerical construction and certification of quantum-switch style supermaps.

The package builds the quantum-switch process matrix and related one-slot
supermaps in Choi form and certifies, at small dimensions, the concrete
identities behind their characterization by the action on unitary channels:
exact combinatorial counts, forced matrix elements, span constructions, and
an independent alternating-projection feasibility probe.
"""

__version__ = "0.1.0"

from .channels import (
    choi_from_kraus,
    compose_channels,
    flip_operator,
    haar_random_unitary,
    standard_channel,
    unitary_choi,
)
from .linalg import Operator, min_eigenvalue, numerical_rank
from .probe import (
    ConstraintSystem,
    alternating_projection_probe,
    build_constraint_system,
)
from .report import CertificateReport, Check
from .span import (
    SpanGenerator,
    build_span_generator,
    estimate_span_dimension,
    group_table,
    verify_span_lemmas,
)
from .switch import (
    Process,
    unitary_actions,
    verify_unitary_action,
)
from .uniqueness import (
    build_cp_family,
    build_derived_one_slot,
    build_identity_process,
    certify_identity_uniqueness,
    cp_family_certificate,
    diagonal_certificate,
    fig_circuits_certificate,
    offdiagonal_certificate,
    verify_corollary,
)
