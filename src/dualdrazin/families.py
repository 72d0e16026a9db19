"""Names of the block theorems, the digraph families and the windmill forms.

These tables are plain data and this module imports nothing, so the ddz
argument parser reads them without loading numpy or the modules that
evaluate the closed forms.  blocks, digraphs and harness take their tables
from here and keep their public names (blocks.THEOREMS, harness.FAMILIES,
harness.GRAPH_FAMILIES).
"""

# theorem -> its blocks, each with its (rows, cols) as size letters; blocks
# sharing a letter must agree in that size.  THEOREMS keeps this order.
_SHAPES = {
    "CLINE": {"A": "mn", "B": "nm"},
    "TRI_UPPER": {"A": "mm", "B": "mn", "D": "nn"},
    "TRI_LOWER": {"A": "mm", "B": "mn", "D": "nn"},
    "SUM_PQ0": {"P": "nn", "Q": "nn"},
    "ABIO_RIGHT": {"A": "nn", "B": "nn"},
    "ABIO_LEFT": {"A": "nn", "B": "nn"},
    "ABCO_RIGHT": {"A": "nn", "B": "np", "C": "pn"},
    "ABCO_LEFT": {"A": "nn", "B": "np", "C": "pn"},
    "BIPARTITE": {"B": "np", "C": "pn"},
}

THEOREMS = tuple(_SHAPES)

# graph_hypotheses form of each windmill variant -> the theorem of its report
_WINDMILL_FORMS = {"drazin": "WINDMILL", "bc_zero": "WINDMILL_BC0", "group": "WINDMILL_GROUP"}

GRAPH_FAMILIES = (
    "DOUBLE_STAR",
    "LINKED_STARS",
    "WINDMILL",
    "WINDMILL_BC0",
    "WINDMILL_GROUP",
)

# every fuzz family: the block theorems, then the digraph families
FAMILIES = THEOREMS + GRAPH_FAMILIES
