"""Link graphs of loopless multigraphs: construction, colouring, minors."""

from .multigraph import (
    Multigraph,
    parse_edge_list,
    dipole,
    complete,
    complete_bipartite,
    cycle,
    path,
    petersen,
    wheel,
    parallel_bridge,
    random_multigraph,
)
from .links import (
    Arc,
    Link,
    ShuntTrace,
    canonicalize,
    can_shunt,
    conjunction,
    enumerate_arcs,
    enumerate_links,
    hub_subgraph,
    is_cycle,
    is_path,
    one_step_shunts,
    shunt_trace,
)
from .construction import (
    AlmostStandardPartition,
    LabeledDigraph,
    LabeledGraph,
    arc_digraph,
    digraph_natural_iso_check,
    iterated_line_digraph,
    link_graph,
    link_graph_connected,
    natural_partition,
    partial_link_graph,
    path_graph,
    quotient,
    quotient_embedding_check,
    verify_almost_standard,
)
from .coloring import (
    Coloring,
    EdgeColoring,
    chromatic_upper_bounds,
    exact_chromatic,
    exact_edge_chromatic,
    is_proper,
    lift_coloring,
    recursive_chromatic_bound,
    reduce_coloring,
)
from .minors import (
    CutInstance,
    MinorWitness,
    bipartite_clique_minor,
    complete_minor_from_cut,
    complete_minor_with_cycle,
    hadwiger_lower_bound,
    hadwiger_model,
    hadwiger_number,
    lift_minor,
    verify_minor,
)
from .harness import Caps, default_corpus, negative_controls, verify_suite
from . import canon  # no module of the package uses it; it stays a public submodule

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
