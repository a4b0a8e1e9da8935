"""Desk-scale QAOA-for-Max-Cut wall-clock benchmarking pipeline.

Library layout, one module per pipeline stage:

  graphs     random 3-regular instances, cut values, brute-force optima
  maxsat     Max-Cut -> Max-2-SAT reduction, DIMACS WCNF emission
  circuit    QAOA logical circuits (H / ZZPhase / RX / SWAP)
  scheduler  grid routing with SWAP insertion, PDPT format, validation
  simulator  state-vector simulation with stochastic T1/T2 trajectories
  estimator  sampled and exact objective estimates
  optimizer  multi-start Nelder-Mead with evaluation accounting
  costmodel  projected hardware wall-clock time, per-size aggregation
  analysis   exponential fits, prediction bands, crossover location
  cli        `qaoabench` command-line driver over all of the above
"""
from .graphs import (CutAssignment, Graph, brute_force_maxcut, cut_value,
                     cut_values_table, gen_random_3regular, read_graph, write_graph)
from .maxsat import CnfFormula, brute_force_max2sat, emit_wcnf, parse_wcnf, reduce_to_max2sat
from .circuit import (Gate, GateKind, LogicalCircuit, QaoaParams,
                      build_qaoa_circuit, logical_depth)
from .scheduler import (GridTopology, Schedule, choose_grid, emit_pdpt,
                        parse_pdpt, schedule, validate_schedule)
from .simulator import (NoiseParams, TrajectoryEnsemble, init_plus_state, optima_mask,
                        run_noisy_ensemble, sample_from_probs, simulate_logical)
from .estimator import SampleEstimate, approximation_ratio, estimate_cut, exact_cut_expectation
from .optimizer import (InstanceSolveResult, NmConfig, RunRecord, nelder_mead,
                        random_initial_simplex, solve_instance)
from .costmodel import HardwareTimes, InstanceCost, aggregate, instance_wall_time, single_repetition_time
from .analysis import CrossoverEstimate, FitResult, crossover, emit_report, fit_exponential

__version__ = "0.1.0"
