import importlib.util
import json
import os
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def write(top, files):
    for rel, data in files.items():
        path = top / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_differing_names_changed_and_one_sided_files_but_not_manifests(tmp_path):
    left, right = tmp_path / "left", tmp_path / "right"
    shared = {"metrics.csv": b"k,nnmp\n3,0.9\n", "models/model_k3.dmp": b"\x00\x01"}
    write(left, {**shared, "k1/metrics.json": b"{}\n", "only_left.txt": b"a",
                 "manifest_eval.json": b'{"out_dir": "left"}'})
    write(right, {**shared, "k1/metrics.json": b"{} \n", "only_right.txt": b"b",
                  "manifest_eval.json": b'{"out_dir": "right"}',
                  "manifest_train.json": b"{}"})
    assert same_outputs.differing(str(left), str(right)) == [
        "k1/metrics.json", "only_left.txt", "only_right.txt"]


def test_identical_trees_do_not_differ(tmp_path):
    files = {"a.csv": b"1,2\n", "sub/b.bin": bytes(range(256))}
    write(tmp_path / "left", files)
    write(tmp_path / "right", files)
    assert same_outputs.differing(str(tmp_path / "left"),
                                  str(tmp_path / "right")) == []
    assert same_outputs.files(str(tmp_path / "left")) == {"a.csv", "sub/b.bin"}


def test_differing_outputs_names_changed_and_one_sided_outputs():
    left = {"op 3 weights": "ab", "op 3 epoch 0": "0x1p+0 0x1p-1",
            "only left": "x"}
    right = {"op 3 weights": "ab", "op 3 epoch 0": "0x1p+0 0x1.8p-1",
             "only right": "y"}
    assert same_outputs.differing_outputs(left, right) == [
        "only left", "only right", "op 3 epoch 0"]
    assert same_outputs.differing_outputs(left, dict(left)) == []


def test_training_outputs_name_each_runs_weights_and_log_rows():
    # the working tree's package at train-synth's recipe and the surrogate's
    outputs = same_outputs.training_outputs(same_outputs.ROOT, 41)
    runs = [f"train-synth op {i}" for i in (3, 17, 101)] + ["surrogate k=5"]
    assert sorted(outputs) == sorted(
        f"{run} {what}" for run in runs
        for what in ("weights", "epoch 0", "epoch 1"))
    for name, value in outputs.items():
        if name.endswith("weights"):
            assert len(value) == 40 and int(value, 16) >= 0
        else:
            assert all(float.fromhex(v) >= 0 for v in value.split())


def manifest(out_dir, model_hash="ab12", wall=1.5, rss=40000, solver=0.25):
    return json.dumps({
        "command": "eval",
        "config": {"out_dir": out_dir, "seed": 41},
        "outputs": {"metrics.csv": "c0ffee", "models/model_k3.dmp": model_hash},
        "wall_seconds": wall, "peak_rss_kib": rss,
        "solver_seconds": {"nnmp": {"3": solver}},
        "versions": {"numpy": "2.4.6"},
    }).encode()


def test_manifests_that_differ_only_in_varying_fields_compare_equal(tmp_path):
    left, right = tmp_path / "left", tmp_path / "right"
    write(left, {"manifest_eval.json": manifest("left")})
    write(right, {"manifest_eval.json": manifest("right", wall=9.0, rss=1,
                                                 solver=3.0)})
    assert same_outputs.files(str(left), manifests=True) == {"manifest_eval.json"}
    assert same_outputs.differing_manifests(str(left), str(right)) == []


def test_manifests_that_differ_in_an_output_hash_or_one_sided_are_reported(
        tmp_path):
    left, right = tmp_path / "left", tmp_path / "right"
    write(left, {"manifest_eval.json": manifest("left"),
                 "manifest_train.json": manifest("left")})
    write(right, {"manifest_eval.json": manifest("right", model_hash="cd34"),
                  "metrics.csv": b"solver,k\n"})
    assert same_outputs.differing_manifests(str(left), str(right)) == [
        "manifest_eval.json", "manifest_train.json"]


def test_run_configs_runs_the_cli_on_the_surrogate_and_the_defaults(tmp_path):
    # the working tree's package; the defaults' 30x200 dictionary walks
    # 6 batches of training rows at a time
    out = tmp_path / "run"
    same_outputs.run_configs(same_outputs.ROOT, str(out), 41, 0.001)
    ran = same_outputs.files(str(out))
    for name, shape in (("surrogate", "503,600"), ("synthetic", "30,200")):
        assert f"{name}.ini" in ran
        assert f"{name}/models/model_k5.dmp" in ran
        assert f"{name}/ecdf_model_k5_layer4.csv" in ran
        assert f"{name}/metrics.csv" in ran
        meta = json.loads((out / name / "dictionary.json").read_text())
        assert f"{meta['signal_dim']},{meta['num_atoms']}" == shape
        # the ecdf command's CSVs, each equal to eval's of the same matrix
        ecdf = {f"{name}/ecdf/dictionary/ecdf_dictionary.csv"} | {
            f"{name}/ecdf/model_k5/ecdf_model_k5_layer{layer}.csv"
            for layer in range(5)}
        assert {rel for rel in ran if rel.startswith(f"{name}/ecdf/")} == ecdf
        for rel in ecdf:
            assert (out / rel).read_bytes() == (
                out / name / os.path.basename(rel)).read_bytes(), rel
    assert {f"{name}/manifest_{step}.json" for name in ("surrogate", "synthetic")
            for step in ("gen_dict", "gen_data", "train", "eval")} | {
        f"{name}/ecdf/{base}/manifest_ecdf.json"
        for name in ("surrogate", "synthetic")
        for base in ("dictionary", "model_k5")} == (
        same_outputs.files(str(out), manifests=True))
