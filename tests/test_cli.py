"""``bbqec run`` against direct decodes of the same shots."""

import json
import shutil
import subprocess

import numpy as np
import pytest

from bbqec import cli
from bbqec.decode import BPConfig, BPOSDDecoder
from bbqec.noise import sample_circuit_noise

# with 16 shots per sampler call, 100 shots take seven calls, the last one partial
SHOTS, SEED, BATCH = 100, 0, 16


def test_run_failure_flags_match_direct_decodes(model, capsys, monkeypatch):
    monkeypatch.setattr(cli, "SAMPLE_BATCH", BATCH)
    argv = ["run", "--code", "bb72", "--cycles", "6", "--p", str(model.p),
            "--shots", str(SHOTS), "--seed", str(SEED), "--bp-iters", "100"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["bp"] == {"max_iters": 100, "scale": 1.0, "memory": 0.1}
    assert report["config"]["sample_batch"] == BATCH

    batch = sample_circuit_noise(model.circuit, model.p, SHOTS, SEED, model.basis)
    failed, iterations = {}, []
    for side in ("x", "z"):
        sm = getattr(model, side)
        dec = BPOSDDecoder(sm.matrix, sm.priors, bp=BPConfig(max_iters=100), logical=sm.logical)
        outs = [dec.decode(s) for s in getattr(batch, f"{side}_syndromes")]
        truth = getattr(batch, f"logical_{side}")
        failed[side] = [j for j, out in enumerate(outs)
                        if not np.array_equal(out.logical.to_bits(), truth[j])]
        iterations += [out.iterations for out in outs]
    assert report["failed_shots"] == failed
    any_failed = set(failed["x"]) | set(failed["z"])
    # the gate needs failing shots in at least two sampler calls
    assert len({j // BATCH for j in any_failed}) >= 2
    f = report["failures"]
    assert f["any_logical"]["count"] == len(any_failed) and f["any_logical"]["of"] == SHOTS
    assert f["sides"]["count"] == len(failed["x"]) + len(failed["z"])
    lo, hi = f["any_logical"]["wilson95"]
    assert lo < len(any_failed) / SHOTS < hi
    rate = 1 - (1 - len(any_failed) / SHOTS) ** (1 / 6)
    assert report["per_cycle"]["rate"] == pytest.approx(rate)
    histogram = {str(k): iterations.count(k) for k in sorted(set(iterations))}
    assert report["bp"]["iterations"] == histogram


@pytest.mark.parametrize("flag, value", [("--bp-iters", "0"), ("--p", "2"), ("--shots", "0"),
                                         ("--seed", str(2**128))])
def test_run_rejects_bad_flags(flag, value, monkeypatch):
    # rejected before the code, basis, circuit or model is built
    monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("built before the flag check"))
    argv = {"--code": "bb72", "--cycles": "6", "--p": "0.003", "--shots": "1", "--seed": "0"}
    argv[flag] = value
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", *(x for kv in argv.items() for x in kv)])
    assert exc.value.code == 2


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_revision_names_only_a_repository_that_tracks_the_package(tmp_path, monkeypatch):
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                               "-c", "commit.gpgsign=false", *args], cwd=tmp_path,
                              capture_output=True, text=True, check=True).stdout.strip()

    # a copy of the package under an ignored directory of an unrelated repository
    git("init", "-q")
    (tmp_path / ".gitignore").write_text(".venv/\n")
    git("add", ".gitignore")
    git("commit", "-q", "-m", "unrelated")
    copy = tmp_path / ".venv" / "bbqec" / "cli.py"
    copy.parent.mkdir(parents=True)
    shutil.copy(cli.__file__, copy)
    monkeypatch.setattr(cli, "__file__", str(copy))
    assert cli._git_revision() == "unknown"
    # once the repository tracks the copy, its commit is the revision
    git("add", "-f", str(copy))
    git("commit", "-q", "-m", "tracked")
    assert cli._git_revision() == git("rev-parse", "HEAD")
