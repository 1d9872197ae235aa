"""The benchmark's workloads: RunConfig overrides on top of the defaults.

Shared by run.py (argument checking) and worker.py (the pipeline itself);
imports nothing, so the parent process stays light.
"""

# `egsearch verify-propositions` at its CLI defaults.  A round runs it
# AUDIT_PIECES times, spread between its train processes, so that audit_s
# (their sum, ~5 s) samples the host's speed across the round.
# Its seed does not follow the workload seed: the marginal leg's fixed
# |z| <= 3 bound over ~100 bit frequencies fails a correct sampler on some
# seeds (seed 2 at these draws).
AUDIT = {"k_max": 10, "m_max": 4, "configs": 20, "draws": 100_000, "seed": 0}
AUDIT_PIECES = 4

# Each "config" is passed to RunConfig(seed=<workload seed>, **config).  A
# round runs one train process per entry of fixed_code["epochs"]; each runs
# the search once, so that search_s (their mean) samples the host's speed at
# several points of the round.  The timed fixed-code training is `retrain` of
# a fixed code, "ops" on every edge; each entry gives the epochs before that
# process's search and after it, so that retrain_s (their sum) is sampled
# across the round too.  A fixed code, because the derived code's training
# cost follows the seed: in search-wide its 150-epoch retrain took 4.4-10.9 s
# over ten seeds.  pipeline-default trains what the quick start trains: the
# random-search baseline before the first search, and a code of M=2 ops per
# edge for retrain_epochs after the second (`egsearch evaluate`).  Its
# baseline draws its codes at BASELINE_SEED: over seeds 401-440 the number of
# linear ops in the ten codes spread by 8 % between quartiles.  The dataset
# still follows the workload seed.  search-wide keeps two ops, as the full
# code's retrain peaks at 1.6-1.8 GB there.  After the first search the
# derived code gets a short untimed retrain for the checks; "check_acc" says
# whether its test accuracy gates the run.
WORKLOADS = {
    # the README quick start with every default: 1,200 steps per search
    "pipeline-default": {
        "config": {}, "baseline": True, "check_acc": False,
        "fixed_code": {"ops": ("linear_relu", "linear_tanh"),
                       "epochs": ((0, 0), (0, 150))},
    },
    # wide matmuls: forward and backward dominate, the sampler is ~6 %
    "search-wide": {
        "config": {"dataset": "two_moons", "dataset_n": 4000, "dim": 128,
                   "batch_size": 256, "epochs": 10},
        "baseline": False, "check_acc": True,
        "fixed_code": {"ops": ("identity", "linear_relu"),
                       "epochs": ((5, 5), (5, 5), (5, 5), (5, 5))},
    },
}

# RunConfig.seed of the timed random-search baseline in pipeline-default
BASELINE_SEED = 0

# epochs of the untimed retrain that checks the derived code's accuracy
CHECK_EPOCHS = 20

# BLAS and OpenMP pools are pinned to one thread in every worker process
BLAS_THREADS = 1
