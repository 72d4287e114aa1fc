"""graphfilt: rational (ARMA) and polynomial (FIR) graph filter design and
matrix-free application on directed and undirected graphs."""

from .arma import (
    ArmaFilter,
    StabilityReport,
    arma_apply_direct,
    arma_from_json,
    arma_response,
    arma_to_json,
    check_stability,
)
from .cg import CgConfig, CgTrace, arma_apply_cg, cg_solve, trace_to_csv
from .design import (
    DesignProblem,
    DesignReport,
    best_order_search,
    iterative_design,
    modified_error,
    prony_ls,
    prony_projection,
    rnmse,
    true_error,
)
from .errors import (
    ConjugateSymmetryError,
    CsvParseError,
    DegenerateDistanceError,
    DimensionError,
    DivergenceError,
    GraphFiltError,
    InstabilityError,
    NonDiagonalizableError,
    ParameterError,
    SingularSystemError,
    ZeroDegreeError,
    ZeroNormError,
)
from .fir import (
    FirFilter,
    fir_apply,
    fir_design,
    fir_from_json,
    fir_response,
    fir_to_json,
    poly_apply,
    vandermonde,
)
from .graphs import (
    Graph,
    ShiftOperator,
    build_er_graph,
    build_knn_directed,
    custom_operator,
    graph_from_json,
    graph_to_json,
    normalize,
    read_coords_csv,
    read_edge_csv,
    shift_apply,
    symmetrize_max,
)
from .spectral import (
    FrequencyGrid,
    SpectralDecomposition,
    complex_disc_grid,
    eigendecompose,
    eigenvalues,
    gft,
    igft,
    order_frequencies,
    spectrum_grid,
    uniform_real_grid,
)

__version__ = "0.1.0"
