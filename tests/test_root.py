import os
import subprocess
import sys
from pathlib import Path

import deepmp
from deepmp import datagen, metrics, network, solvers, training

QUICK_START = {
    "MixtureConfig": datagen,
    "generate_synthetic_dictionary": datagen,
    "sample_mixture": datagen,
    "nnmp_solve": solvers,
    "hamming_complement": metrics,
    "train_model": training,
    "forward_infer": network,
}


def test_root_exports_exactly_the_quick_start_names():
    assert sorted(deepmp.__all__) == sorted(QUICK_START)
    for name, module in QUICK_START.items():
        assert getattr(deepmp, name) is getattr(module, name), name


def test_import_loads_the_same_modules_as_the_full_root():
    # `import deepmp` is what perfbench's setup_s times, so trimming the
    # root's names must not trim the work it does
    src = str(Path(deepmp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, deepmp; print(*sorted(m for m in "
         "sys.modules if m.partition('.')[0] == 'deepmp'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["deepmp"] + [f"deepmp.{m}" for m in (
        "datagen", "errors", "metrics", "network", "optim", "seeding",
        "solvers", "training", "types")]
