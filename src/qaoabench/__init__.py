"""Desk-scale QAOA-for-Max-Cut wall-clock benchmarking pipeline.

Library layout, one module per pipeline stage; import the stage you use:

  graphs     random 3-regular instances, cut values, brute-force optima
  maxsat     Max-Cut -> Max-2-SAT reduction, DIMACS WCNF emission
  circuit    QAOA logical circuits (H / ZZPhase / RX)
  scheduler  grid routing with SWAP insertion, PDPT format, validation
  simulator  state-vector simulation with stochastic T1/T2 trajectories
  streams    the simulator's per-realization random streams, drawn in bulk
  optimizer  multi-start Nelder-Mead with evaluation accounting, sampled
             cut estimates
  costmodel  projected hardware wall-clock time, per-size aggregation
  analysis   exponential fits, prediction bands, crossover location
  cli        `qaoabench` command-line driver over all of the above

The simulator runs its own row-block threads, so BLAS should run
single-threaded: importing the package sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 unless they are set already. BLAS
reads them when numpy loads, which no stage does before this runs; a process
that loaded numpy earlier keeps the thread counts it started with.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
