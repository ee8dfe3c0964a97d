import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import netbisim
from netbisim import cli
from netbisim.cli import cli_main

NETS = Path(__file__).resolve().parent.parent / "nets"

FIG1 = """\
net fig1
places s1 s2 s3
trans t1 a : s1 -> s2
trans t4 a : s3 -> 0
marking m_s1 : s1
marking m_s3 : s3
"""

FIG2 = """\
net fig2
places s1 s2 s3
trans t1 u : s1 -> 2*s2
trans t2 v : s2 -> s3
marking m0 : s1 + 3*s2
"""

CYCLE = """\
net cycle
places a b
trans t1 x : 2*a -> b
trans t2 y : b -> 2*a
marking m : 2*a
"""


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.pn"
    path.write_text(FIG1)
    return str(path)


@pytest.fixture
def fig2_path(tmp_path):
    path = tmp_path / "fig2.pn"
    path.write_text(FIG2)
    return str(path)


def test_check_fc_exit_0(fig1_path, capsys):
    assert cli_main(["check", "--equiv", "fc", "--cap", "4",
                     fig1_path, "m_s1", "m_s3"]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"


def test_check_cn_exit_1(fig1_path, capsys):
    assert cli_main(["check", "--equiv", "cn", "--cap", "4",
                     fig1_path, "m_s1", "m_s3"]) == 1
    assert capsys.readouterr().out.strip() == "not-equivalent"


def test_check_il(fig1_path):
    assert cli_main(["check", "--equiv", "il", "--cap", "4",
                     fig1_path, "m_s1", "m_s3"]) == 0


def test_check_writes_witness(fig1_path, tmp_path):
    out = tmp_path / "witness.txt"
    assert cli_main(["check", "--equiv", "fc", "--cap", "4",
                     "--witness", str(out), fig1_path, "m_s1", "m_s3"]) == 0
    assert out.read_text().startswith("triples ")


BUF4 = """\
net buf4
places pr free full
trans put a : pr + free -> pr + full
trans get b : full -> free
marking m0 : pr + 4*free
"""


@pytest.fixture
def buf4_path(tmp_path):
    path = tmp_path / "buf4.pn"
    path.write_text(BUF4)
    return str(path)


def test_check_triple_limit_exits_unknown(buf4_path, tmp_path, capsys):
    """The fc search of buf(4) explores 31 triples; a limit of 10 stops it
    with verdict unknown and exit code 2, and stderr names the limit."""
    out = tmp_path / "witness.txt"
    assert cli_main(["check", "--equiv", "fc", "--cap", "4",
                     "--max-triples", "10", "--witness", str(out),
                     buf4_path, "m0", "m0"]) == 2
    captured = capsys.readouterr()
    assert captured.out.strip() == "unknown"
    assert captured.err == "limit reached: max_triples\n"
    assert out.read_text() == "unknown\n"
    assert cli_main(["check", "--equiv", "cn", "--cap", "4",
                     "--max-seconds", "30", buf4_path, "m0", "m0"]) == 0


def test_check_limits_need_fc_or_cn(buf4_path, capsys):
    for flag, value in (("--max-triples", "10"), ("--max-seconds", "1")):
        assert cli_main(["check", "--equiv", "il", "--cap", "4", flag, value,
                         buf4_path, "m0", "m0"]) == 64
        assert cli_main(["check", "--equiv", "fc", "--cap", "4", flag, "-1",
                         buf4_path, "m0", "m0"]) == 3
    assert cli_main(["check", "--equiv", "fc", "--cap", "4", "--max-seconds",
                     "nan", buf4_path, "m0", "m0"]) == 3


def test_oracle_exit_codes(fig1_path, tmp_path, capsys):
    """Exit 2 names the limit that fired on stderr, as `check` does."""
    assert cli_main(["oracle", "--flavor", "fc", "--depth", "2",
                     fig1_path, "m_s1", "m_s3"]) == 0
    assert cli_main(["oracle", "--flavor", "cn", "--depth", "2",
                     fig1_path, "m_s1", "m_s3"]) == 1
    assert capsys.readouterr().err == ""
    cycle = tmp_path / "cycle.pn"
    cycle.write_text(CYCLE)
    assert cli_main(["oracle", "--flavor", "fc", "--depth", "2",
                     str(cycle), "m", "m"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "unknown\n"
    assert captured.err == "limit reached: depth\n"


def test_depth_zero_is_input_error(fig1_path, capsys):
    """--depth 0 is bad input (exit 3), not a not-equivalent verdict."""
    assert cli_main(["oracle", "--flavor", "fc", "--depth", "0",
                     fig1_path, "m_s1", "m_s3"]) == 3
    assert "error:" in capsys.readouterr().err
    assert cli_main(["corpus", "--count", "1", "--depth", "0"]) == 3
    assert "error:" in capsys.readouterr().err


def test_negative_corpus_count_is_input_error(capsys):
    assert cli_main(["corpus", "--count", "-3"]) == 3
    captured = capsys.readouterr()
    assert captured.err.strip() == "error: count must be >= 0"
    assert captured.out == ""


@pytest.mark.parametrize("what", ["markings", "im", "oim"])
def test_explore_cap_zero_is_input_error(fig2_path, what, capsys):
    """Every explorer rejects a cap below 1 with the same message."""
    assert cli_main(["explore", "--what", what, "--cap", "0",
                     fig2_path, "m0"]) == 3
    assert capsys.readouterr().err.strip() == "error: cap must be positive"


def test_parse_error_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.pn"
    path.write_text("net x y\n")
    assert cli_main(["bound", "--cap", "2", str(path), "m"]) == 3
    assert "line 1, column 7: trailing input" in capsys.readouterr().err


def test_non_utf8_file_is_bad_input(tmp_path, capsys):
    """A net file that is not UTF-8 is reported in one line, exit 3, with
    no traceback."""
    path = tmp_path / "bad.pn"
    path.write_bytes(b"net n\nplaces \xff\n")
    assert cli_main(["bound", "--cap", "2", str(path), "m"]) == 3
    assert capsys.readouterr().err == (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position "
        "13: invalid start byte\n")


def test_bound_prints_least_bound(fig2_path, capsys):
    assert cli_main(["bound", "--cap", "8", fig2_path, "m0"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_bound_cap_exceeded_is_error(fig2_path, capsys):
    assert cli_main(["bound", "--cap", "2", fig2_path, "m0"]) == 3
    assert "error" in capsys.readouterr().err


HUGE = """\
net huge
places s1 s2
trans t a : s1 -> s2
marking m0 : 1000000000000000*s1
"""


def _address_space_of_1gb():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_on_huge_in_1gb(args, tmp_path):
    """The CLI run in a child process with a 1 GB address space, with NET
    in args standing for a file holding HUGE."""
    path = tmp_path / "huge.pn"
    path.write_text(HUGE)
    src = str(Path(netbisim.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "netbisim.cli",
         *[str(path) if a == "NET" else a for a in args]],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=60, preexec_fn=_address_space_of_1gb)


@pytest.mark.parametrize("args", [
    ["check", "--equiv", "fc", "--cap", "2", "NET", "m0", "m0"],
    ["check", "--equiv", "il", "--cap", "2", "NET", "m0", "m0"],
    ["bound", "--cap", "2", "NET", "m0"],
    ["explore", "--what", "markings", "--cap", "2", "NET", "m0"],
    ["explore", "--what", "im", "--cap", "2", "NET", "m0"],
    ["explore", "--what", "oim", "--cap", "2", "NET", "m0"],
], ids=["check-fc", "check-il", "bound", "explore-markings", "explore-im",
        "explore-oim"])
def test_marking_far_over_the_cap_is_refused(args, tmp_path):
    """A marking of 10^15 tokens on one place is refused against the cap
    before it is expanded into tokens: each command exits 3 within a 1 GB
    address space instead of running out of memory."""
    run = _run_on_huge_in_1gb(args, tmp_path)
    assert run.returncode == 3, run.stderr
    assert run.stderr.strip().endswith("cap is 2")


def test_oracle_out_of_memory_exits_3(tmp_path):
    """The oracle takes no cap, so it expands the marking of 10^15 tokens
    and runs out of a 1 GB address space: the `MemoryError` is an
    internal error (exit 3), not a not-equivalent verdict (exit 1)."""
    run = _run_on_huge_in_1gb(
        ["oracle", "--flavor", "fc", "--depth", "2", "NET", "m0", "m0"],
        tmp_path)
    assert run.returncode == 3, run.stderr
    assert "MemoryError" in run.stderr


def test_internal_error_exits_3_with_traceback(fig1_path, monkeypatch,
                                               capsys):
    def broken(*args):
        raise RuntimeError("broken decider")

    monkeypatch.setattr(cli, "decide_oim", broken)
    assert cli_main(["check", "--equiv", "fc", "--cap", "4",
                     fig1_path, "m_s1", "m_s3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("RuntimeError: broken decider\n")


def test_check_writes_refutation(tmp_path):
    """`check --witness` writes a not-equivalent verdict's refutation as
    `format_refutation` gives it."""
    out = tmp_path / "refutation.txt"
    path = str(NETS / "parallel_choice.pn")
    assert cli_main(["check", "--equiv", "fc", "--witness", str(out),
                     path, "m_par", "m_choice"]) == 1
    doc = netbisim.parse_net((NETS / "parallel_choice.pn").read_text())
    verdict = netbisim.decide_oim(doc.net, doc.markings["m_par"],
                                  doc.markings["m_choice"], 16)
    assert verdict.outcome == "not-equivalent"
    assert out.read_text() == netbisim.format_refutation(verdict.refutation)


def test_corpus_reports_disagreements(monkeypatch, capsys):
    """An engine whose fc verdicts are flipped disagrees with the oracle on
    every instance the oracle decides under fc, and on no other."""
    flip = {"equivalent": "not-equivalent", "not-equivalent": "equivalent"}
    decide = cli.decide_oim

    def flipped(*args):
        verdict = decide(*args)
        verdict.outcome = flip.get(verdict.outcome, verdict.outcome)
        return verdict

    monkeypatch.setattr(cli, "decide_oim", flipped)
    assert cli_main(["--seed", "7", "corpus", "--count", "5",
                     "--depth", "4"]) == 1
    out = capsys.readouterr().out.splitlines()
    reports = [line for line in out
               if line.startswith("disagreement on instance ")]
    tally = dict(line.split(": ") for line in out
                 if line.startswith(("fc:", "cn:")))
    decided = 5 - int(tally.get("fc:unknown", 0))
    assert decided > 0
    assert len(reports) == decided
    assert all(" (fc): engine=" in line for line in reports)
    assert out[-1] == f"checked 5 instances, {decided} disagreements"


def test_corpus_never_counts_an_oracle_unknown(monkeypatch, capsys):
    """An engine whose verdicts are all flipped disagrees with the oracle on
    every instance the oracle decides, and on none that it leaves unknown:
    those are tallied, not compared."""
    flip = {"equivalent": "not-equivalent", "not-equivalent": "equivalent"}

    def flipped(decide):
        def call(*args):
            verdict = decide(*args)
            verdict.outcome = flip[verdict.outcome]
            return verdict
        return call

    for name in ("decide_oim", "decide_oimc"):
        monkeypatch.setattr(cli, name, flipped(getattr(cli, name)))
    assert cli_main(["--seed", "42", "corpus", "--count", "20",
                     "--depth", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    tally = {key: int(n) for key, n in (line.split(": ") for line in out
                                         if line.startswith(("fc:", "cn:")))}
    unknown = tally["fc:unknown"] + tally["cn:unknown"]
    assert tally["fc:unknown"] > 0 and tally["cn:unknown"] > 0
    decided = 2 * 20 - unknown
    assert sum(line.startswith("disagreement on instance ")
               for line in out) == decided
    assert out[-1] == f"checked 20 instances, {decided} disagreements"


def test_explore_markings_and_dot(fig2_path, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert cli_main(["explore", "--what", "markings", "--cap", "8",
                     "--dot", str(dot), fig2_path, "m0"]) == 0
    assert capsys.readouterr().out.startswith("markings ")
    assert dot.read_text().startswith("digraph")


def test_explore_im_dot(fig2_path, tmp_path, capsys):
    dot = tmp_path / "im.dot"
    assert cli_main(["explore", "--what", "im", "--cap", "8",
                     "--dot", str(dot), fig2_path, "m0"]) == 0
    out = capsys.readouterr().out
    count = int(out.split()[-1])
    assert dot.read_text().count("[label=") >= count


def test_explore_oim(fig2_path, capsys):
    assert cli_main(["explore", "--what", "oim", "--cap", "8",
                     fig2_path, "m0"]) == 0
    assert capsys.readouterr().out.startswith("ordered indexed markings ")


# sha256 prefixes of `explore --dot` for every sample net and marking,
# pinned so that the explorers and DOT exporters keep their output
# byte-identical.
DOT_DIGESTS = {
    ("fig1", "m_s1", "markings"): "7530c324615dcbe5",
    ("fig1", "m_s1", "im"): "bdae3804373dd4f5",
    ("fig1", "m_s1", "oim"): "2c834f7994862f84",
    ("fig1", "m_s3", "markings"): "ed8251600ac58879",
    ("fig1", "m_s3", "im"): "7294637dde382c84",
    ("fig1", "m_s3", "oim"): "0436b960825a0d26",
    ("fig2", "m0", "markings"): "bbca9eed1a86a10e",
    ("fig2", "m0", "im"): "f9344b727dc70d47",
    ("fig2", "m0", "oim"): "4aff8f2f8554153e",
    ("parallel_choice", "m_par", "markings"): "9a139c4385deaa75",
    ("parallel_choice", "m_par", "im"): "50c0d5f935147569",
    ("parallel_choice", "m_par", "oim"): "3962a03bdb4176c6",
    ("parallel_choice", "m_choice", "markings"): "f5176bd7df357a23",
    ("parallel_choice", "m_choice", "im"): "ca752c52e0aef2a8",
    ("parallel_choice", "m_choice", "oim"): "6b6841276d341a2a",
}


@pytest.mark.parametrize("net,marking,what", sorted(DOT_DIGESTS))
def test_explore_dot_is_pinned(net, marking, what, tmp_path):
    dot = tmp_path / "g.dot"
    assert cli_main(["explore", "--what", what, "--dot", str(dot),
                     str(NETS / f"{net}.pn"), marking]) == 0
    digest = hashlib.sha256(dot.read_bytes()).hexdigest()[:16]
    assert digest == DOT_DIGESTS[net, marking, what]


def test_usage_error_exit_64(capsys):
    assert cli_main(["check", "--equiv", "zz", "x.pn", "a", "b"]) == 64
    assert cli_main(["frobnicate"]) == 64
    assert capsys.readouterr().err != ""


def test_missing_file_is_runtime_error(capsys):
    assert cli_main(["check", "--equiv", "fc", "/nonexistent.pn",
                     "a", "b"]) == 3


def test_unknown_marking_is_runtime_error(fig1_path, capsys):
    assert cli_main(["check", "--equiv", "fc", fig1_path, "m_s1",
                     "nope"]) == 3
    assert "no marking" in capsys.readouterr().err


def test_parse_error_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.pn"
    bad.write_text("net n\ntrans t a : -> p\n")
    assert cli_main(["check", "--equiv", "fc", str(bad), "a", "b"]) == 3


def test_corpus_smoke(capsys):
    assert cli_main(["--seed", "7", "corpus", "--count", "5",
                     "--depth", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "checked 5 instances, 0 disagreements"
    tally = dict(line.split(": ") for line in out[:-1])
    assert set(tally) <= {f"{flavor}:{outcome}" for flavor in ("fc", "cn")
                          for outcome in ("equivalent", "not-equivalent",
                                          "unknown")}
    for flavor in ("fc", "cn"):
        assert sum(int(n) for key, n in tally.items()
                   if key.startswith(f"{flavor}:")) == 5
