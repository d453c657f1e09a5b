"""Monomial bound quiver algebras, their exact global dimension, and the
constructions that realize a prescribed one."""

from .algebra import (
    Algebra,
    Admissibility,
    BasisCapExceeded,
    ModuleSpec,
    NotAdmissibleError,
    RelationSet,
    reduce_relations,
)
from .construct import (
    Certificate,
    PlanResult,
    achieve_gldim,
    chain_cubic_ideal,
    chain_ideal,
    gldim2_achievable,
    local_max_ideal,
)
from .homology import (
    INFINITE,
    InfiniteResolutionError,
    Resolution,
    chain_successors,
    check_euler_identity,
    gldim,
    pdim,
    pdims_of_simples,
    resolve,
)
from .qh import SqhReport, check_strongly_qh
from .quiver import (
    Arrow,
    CompositionError,
    Embedding,
    Path,
    Quiver,
    Relabeling,
    SearchBudgetExceeded,
    compose,
    find_a_embeddings,
    find_x_embedding,
    is_extendable,
    relabel,
    relabeling_from_embedding,
    structure_predicates,
)

__version__ = "0.1.0"
