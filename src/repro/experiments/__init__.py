"""``repro.experiments`` — harness regenerating every table and figure.

Each module corresponds to one artifact of the paper's evaluation
section and exposes ``run_*`` (compute), ``check_*`` (paper-shape
assertions) and ``format_*`` (text rendering):

===========  ===========================================================
``table1``   test accuracy across models/datasets/methods
``table2``   accuracy under 20-80% symmetric label noise
``table3``   HERO vs first-order-only vs SGD under PTQ (ablation)
``fig1``     PTQ accuracy vs precision, 7 panels
``fig2``     ``||Hz||`` and generalization gap across training
``fig3``     loss contours around converged weights
``ablations``design-choice ablations (perturbation/penalty/h/gamma)
``qat``      Sec. 2.2 motivation (``qat_motivation``): QAT vs HERO/SGD PTQ
===========  ===========================================================
"""

from .config import (
    TrainConfig,
    make_config,
    make_grid,
    expand_grid,
    METHOD_HYPERS,
    PAPER_MODELS,
    PROFILES,
)
from .runner import (
    RunResult,
    run_training,
    evaluate_accuracy,
    accuracy_eval_fn,
    execute_record,
    load_experiment_data,
    build_model,
    build_trainer,
    default_cache_dir,
    DEFAULT_CACHE_DIR,
)
from .sweep import (
    SweepReport,
    run_sweep,
    train_runs,
    resolve_workers,
    format_sweep,
)
from .scheduler import (
    TaskQueue,
    worker_loop,
    worker_identity,
    queue_name_for,
    format_queue,
)
from .reporting import RunRecord, format_table, format_series, save_json
from .table1 import run_table1, check_table1, format_table1, table1_configs
from .table2 import run_table2, check_table2, format_table2, table2_configs
from .table3 import run_table3, check_table3, format_table3, table3_configs
from .fig1 import (
    run_fig1,
    check_fig1,
    format_fig1,
    fig1_configs,
    run_fig1_schemes,
    check_fig1_schemes,
    format_fig1_schemes,
)
from .fig2 import run_fig2, check_fig2, format_fig2, fig2_configs, fig2_callbacks
from .fig3 import run_fig3, check_fig3, format_fig3, fig3_configs
from .qat_motivation import (
    run_qat_motivation,
    check_qat_motivation,
    format_qat_motivation,
    qat_motivation_configs,
)
from .replication import run_with_seeds, compare_methods_with_seeds
from .summary_report import collect_results_markdown, write_results_markdown
from .ablations import (
    run_perturbation_ablation,
    run_penalty_ablation,
    run_h_sensitivity,
    run_gamma_grid,
    run_regularizer_ablation,
    run_ablations,
    format_ablation,
    ablation_configs,
)

__all__ = [
    "TrainConfig",
    "make_config",
    "make_grid",
    "expand_grid",
    "METHOD_HYPERS",
    "PAPER_MODELS",
    "PROFILES",
    "RunResult",
    "run_training",
    "evaluate_accuracy",
    "accuracy_eval_fn",
    "load_experiment_data",
    "build_model",
    "build_trainer",
    "default_cache_dir",
    "DEFAULT_CACHE_DIR",
    "RunRecord",
    "SweepReport",
    "run_sweep",
    "train_runs",
    "resolve_workers",
    "format_sweep",
    "execute_record",
    "TaskQueue",
    "worker_loop",
    "worker_identity",
    "queue_name_for",
    "format_queue",
    "format_table",
    "format_series",
    "save_json",
    "run_table1",
    "check_table1",
    "format_table1",
    "table1_configs",
    "run_table2",
    "check_table2",
    "format_table2",
    "table2_configs",
    "run_table3",
    "check_table3",
    "format_table3",
    "table3_configs",
    "run_fig1",
    "check_fig1",
    "format_fig1",
    "fig1_configs",
    "run_fig1_schemes",
    "check_fig1_schemes",
    "format_fig1_schemes",
    "run_fig2",
    "check_fig2",
    "format_fig2",
    "fig2_configs",
    "fig2_callbacks",
    "run_fig3",
    "check_fig3",
    "format_fig3",
    "fig3_configs",
    "run_perturbation_ablation",
    "run_penalty_ablation",
    "run_h_sensitivity",
    "run_gamma_grid",
    "run_regularizer_ablation",
    "run_ablations",
    "format_ablation",
    "ablation_configs",
    "run_qat_motivation",
    "check_qat_motivation",
    "format_qat_motivation",
    "qat_motivation_configs",
    "run_with_seeds",
    "compare_methods_with_seeds",
    "collect_results_markdown",
    "write_results_markdown",
]
