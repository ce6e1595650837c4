"""Command line interface: output shapes, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ringwalk import cli
from ringwalk import verify as verify_mod
from ringwalk.rings import enumerate_rings


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_python_dash_m_is_the_command_line(capsys):
    """`python -m ringwalk` runs cli.main once, with nothing on stderr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = ["ring", "Z2", "--format", "json"]
    done = subprocess.run([sys.executable, "-m", "ringwalk", *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == _run(capsys, *argv)[1]


def test_ring_text_output(capsys):
    code, out = _run(capsys, "ring", "Z12")
    assert code == 0
    assert "Z3 x Z4" in out
    assert "units: 4" in out
    for u in ("1", "5", "7", "11"):
        assert u in out


def test_ring_json_output(capsys):
    code, out = _run(capsys, "ring", "Z12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ring"] == "Z3 x Z4"
    assert payload["order"] == 12
    assert payload["units"]["count"] == 4
    assert payload["units"]["elements"] == ["1", "5", "7", "11"]
    assert payload["sum_of_units_ring"] is True


def test_ring_json_galois(capsys):
    code, out = _run(capsys, "ring", "GF(9)", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["square_units"]["count"] == 4


def test_graph_dot_output(capsys):
    code, out = _run(capsys, "graph", "Z4")
    assert code == 0
    assert out.count(" -- ") == 4


def test_graph_json_quadratic_cycle(capsys):
    code, out = _run(capsys, "graph", "Z10", "--family", "quadratic-unitary",
                     "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["graph"]["vertices"] == 10
    assert payload["regularity"] == 2
    assert payload["connected"] is True


def test_walk_json_z12(capsys):
    code, out = _run(capsys, "walk", "Z12")
    assert code == 0
    payload = json.loads(out)
    comp = payload["components"][0]
    assert comp["periodic"] is True
    assert comp["period"] == 12
    pairs = comp["pst"]["pairs"]
    assert pairs[0] == {"source": "0", "target": "6", "time": 6, "phase": 1}


def test_walk_json_nonperiodic(capsys):
    code, out = _run(capsys, "walk", "Z13", "--family", "quadratic-unitary")
    assert code == 0
    payload = json.loads(out)
    comp = payload["components"][0]
    assert comp["periodic"] is False
    assert comp["period"] is None
    assert comp["pst"]["pairs"] == []
    assert comp["pst"]["pruned_by_transitivity"] is True


def test_walk_text_format(capsys):
    code, out = _run(capsys, "walk", "Z5", "--format", "text")
    assert code == 0
    assert "periodic" in out


def test_output_is_deterministic(capsys):
    _, first = _run(capsys, "walk", "Z12")
    _, second = _run(capsys, "walk", "Z12")
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "z12.json"
    code = cli.main(["ring", "Z12", "--format", "json", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["order"] == 12


def test_bad_ring_spec_exits_one(capsys):
    code, out = _run(capsys, "ring", "Z0")
    err = capsys.readouterr().err
    assert code == 1


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--tau-max", "0"])
    assert info.value.code == 1
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
    for flag in ("--tau-max", "--period-bound"):
        with pytest.raises(SystemExit) as info:
            cli.main(["walk", "Z12", flag, "5"])
        assert info.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def test_unwritable_out_exits_one(tmp_path, capsys):
    for argv in (["ring", "Z12", "--out", str(tmp_path / "missing" / "x.json")],
                 ["walk", "Z12", "--out", str(tmp_path)]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", argv
        assert captured.err.startswith("ringwalk: error: ")
        assert "Traceback" not in captured.err


def test_order_cap_exits_three(capsys, monkeypatch):
    code, _ = _run(capsys, "walk", "Z37")
    assert code == 3
    monkeypatch.setenv("GROVER_RING_CAP", "100")
    code, out = _run(capsys, "walk", "Z37")
    assert code == 0


@pytest.mark.parametrize("command", ["ring", "graph", "walk"])
def test_every_command_refuses_large_rings_first(capsys, monkeypatch, command):
    # the two large specs would take seconds to factor, or gigabytes to list,
    # if the cap were checked after building the ring
    for spec in ("Z37", "Z2305843009213693951", "Zp[2,100000]"):
        code = cli.main([command, spec])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", spec
        assert "cap 36" in captured.err
    monkeypatch.setenv("GROVER_RING_CAP", "40")
    assert _run(capsys, command, "Z37")[0] == 0
    for spec in ("Z2305843009213693951", "Zp[2,100000]"):
        assert _run(capsys, command, spec)[0] == 3


def test_bad_cap_env_exits_three(capsys, monkeypatch):
    monkeypatch.setenv("GROVER_RING_CAP", "banana")
    code, _ = _run(capsys, "walk", "Z12")
    assert code == 3


def test_verify_honours_raised_cap(capsys, monkeypatch):
    monkeypatch.setenv("GROVER_RING_CAP", "40")
    code, out = _run(capsys, "verify", "--max-order", "37")
    assert code == 0
    assert json.loads(out)["records"][-1]["ring"] == "Z37"


def test_route_disagreement_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli.walks, "bruteforce_period", lambda g, tau_max: None)
    code = cli.main(["walk", "Z12"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "internal inconsistency" in captured.err


def test_walk_analyses_each_component_once(capsys, charpoly_sizes,
                                           search_horizons):
    charpolys, searches = charpoly_sizes, search_horizons
    # three periodic components, then one aperiodic connected graph
    code, out = _run(capsys, "walk", "Z3 x Z3", "--family", "quadratic-unitary")
    assert code == 0 and len(json.loads(out)["components"]) == 3
    assert charpolys == [3, 3, 3] and searches == [3, 3, 3]
    charpolys.clear()
    searches.clear()
    code, _ = _run(capsys, "walk", "Z13", "--family", "quadratic-unitary")
    assert code == 0 and charpolys == [13] and searches == []


def test_verify_json_small_sweep(capsys):
    code, out = _run(capsys, "verify", "--max-order", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["family"] == "unitary"
    records = payload["records"]
    assert [r["ring"] for r in records][:2] == ["Z2", "Z3"]
    z4 = next(r for r in records if r["ring"] == "Z4")
    assert z4["computed"]["period"] == 4
    assert z4["computed"]["pst_pairs"] == [
        {"source": 0, "target": 2, "time": 2, "phase": 1},
        {"source": 2, "target": 0, "time": 2, "phase": 1}]
    assert z4["predicted"]["pst"] is True
    assert z4["status"] == "pass"


def test_short_oracle_horizon_keeps_every_period(capsys):
    """--tau-max bounds brute force on aperiodic verdicts only: a periodic
    one is searched past it, so every record matches the default horizon."""
    code, out = _run(capsys, "verify", "--max-order", "12", "--tau-max", "5")
    assert code == 0
    short = json.loads(out)
    code, out = _run(capsys, "verify", "--max-order", "12")
    assert code == 0
    default = json.loads(out)
    assert short["status"] == "pass" and short["tau_max"] == 5
    assert short["records"] == default["records"]
    assert max(r["computed"]["period"] or 0 for r in short["records"]) > 5


def test_verify_text_format(capsys):
    code, out = _run(capsys, "verify", "--max-order", "4", "--format", "text")
    assert code == 0
    assert "pass" in out


def test_verify_quadratic_family(capsys):
    code, out = _run(capsys, "verify", "--family", "quadratic-unitary",
                     "--max-order", "6")
    assert code == 0
    payload = json.loads(out)
    z5 = next(r for r in payload["records"] if r["ring"] == "Z5")
    assert z5["computed"]["period"] == 5
    assert z5["computed"]["pst_positive"] is False


def test_verify_failure_exits_two(capsys, monkeypatch):
    real = verify_mod.verify_ring

    def sabotage(ring, family="unitary", tau_max=120):
        rec = real(ring, family=family, tau_max=tau_max)
        if ring.token == "Z4":
            rec = rec._replace(failures=("synthetic",))
        return rec

    monkeypatch.setattr(cli.verify_mod, "verify_ring", sabotage)
    code, out = _run(capsys, "verify", "--max-order", "4")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert any(r["status"] == "fail" for r in payload["records"])


_NUMBER = st.one_of(st.integers(0, 40), st.integers(37, 10 ** 30))
_FACTOR = st.one_of(
    st.builds("Z{}".format, _NUMBER),
    st.builds("GF({})".format, _NUMBER),
    st.builds("G({})".format, _NUMBER),
    st.builds("Zp[{},{}]".format, _NUMBER, _NUMBER),
    st.sampled_from(["", "Z", "Z-3", "GF(6)", "G(x)", "Zp[4,2]", "Q7", "z5",
                     "Z12)", "x"]),
)


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@given(st.sampled_from(["ring", "graph", "walk"]),
       st.one_of(st.sampled_from([r.token for r in enumerate_rings(36)]),
                 st.lists(_FACTOR, min_size=1, max_size=3).map(" x ".join)),
       st.sampled_from(["unitary", "quadratic-unitary"]))
@settings(max_examples=40, deadline=None)
def test_cli_specs_exit_cleanly_and_repeat_exactly(command, spec, family):
    argv = [command, spec] + (["--family", family] if command != "ring" else [])
    code, out, err = _main_output(argv)
    assert code in (0, 1, 3), (argv, err)
    assert "Traceback" not in err
    assert _main_output(argv) == (code, out, err)
