import qaoabench  # first, so that BLAS runs single-threaded as in the CLI
import itertools

import pytest
from hypothesis import strategies as st

from qaoabench.graphs import Graph

# 8-vertex, 12-edge instance whose published grid schedule ships with the
# test data below; brute-force optimum is 10 (frozen from 2^8 enumeration).
APP_B_EDGES = ((7, 6), (7, 3), (5, 3), (6, 2), (6, 1), (5, 2),
               (7, 4), (3, 0), (1, 0), (4, 1), (5, 4), (2, 0))
APP_B_MAXCUT = 10
APP_B_N_OPTIMA = 8

# Published 31-cycle schedule of the p=4 circuit for that instance on a
# 3x3 grid (gate ids 1..80 exclude the |+...+> preparation layer).
APP_B_PDPT = """\
# PDPT: each column is associated to a physical qubit , each row to a clock-cycle
## physical qubit indices ##################################################
        0       1       2       3       4       5       6       7       8
## logical qubit indices ###################################################
        3       6       4       0       1       7       5       2       *
############################################################################
        8       5       7       8       5       7       6       6       0
        -3      -3      -2      9       9       -2      -1      -1      0
        -5      2       2       -5      -4      0       0       -4      0
        0       0       0       4       11      11      4       0       0
        0       3       -8      -6      3       -8      -6      -7      -7
        12      16      0       12      18      -10     -9      -9      -10
        13      23      10      15      23      10      0       1       1
        28      28      17      26      26      14      0       19      20
        0       -11     -12     -13     -11     -12     -13     0       0
        -14     -14     0       0       -15     -15     24      24      0
        -16     29      29      -16     0       22      0       0       22
        -18     -18     0       31      31      36      0       -17     -17
        0       0       -19     38      27      -19     0       27      0
        -20     -21     -21     -20     0       25      0       0       25
        43      43      0       32      30      30      32      21      21
        0       0       0       33      37      34      35      40      39
        -22     0       0       -22     47      45      0       47      45
        48      48      0       46      50      50      46      41      41
        -25     -25     -23     51      51      -23     -24     -24     0
        0       49      49      58      57      0       0       44      44
        0       0       54      71      71      0       0       0       59
        0       -27     0       -28     -27     -26     -28     0       -26
        42      0       65      42      52      65      0       52      0
        56      70      70      60      53      0       0       55      0
        -29     0       0       -29     0       -30     0       0       -30
        67      67      0       68      68      0       0       64      64
        62      77      -31     62      0       -31     66      66      0
        -33     -33     0       63      69      69      63      -32     -32
        0       0       0       76      -34     74      78      -34     0
        0       61      0       0       61      0       0       72      72
        0       80      0       0       79      0       0       73      75
############################################################################
"""

PUBLISHED_DEPTH = 31


@pytest.fixture
def app_b_graph():
    return Graph(8, APP_B_EDGES)


@pytest.fixture
def k3():
    return Graph(3, ((0, 1), (1, 2), (0, 2)))


@pytest.fixture
def k4():
    return Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


@st.composite
def simple_graphs(draw, max_n: int):
    """Any simple graph on 1..max_n vertices, each edge in a drawn orientation."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                          unique=True)) if n > 1 else []
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, tuple((j, i) if flip else (i, j) for (i, j), flip in zip(pairs, flips)))
