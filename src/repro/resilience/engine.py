# The supervised engine is ParallelExperimentEngine itself.  This alias
# exists only because benchmarks/e2e/spans.py binds
# ``ResilientEngine.run_jobs``; ROADMAP item 3 (one perf toolchain) moves
# that table into src/ and deletes the alias.
from ..sim.parallel import ParallelExperimentEngine

ResilientEngine = ParallelExperimentEngine
