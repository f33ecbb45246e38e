"""Property tests of the CLI on malformed scenario files: one leaf of
configs/desk.json replaced by a bad value ends in exit 0, 2 or 3, never in an
exception, and a key that the config does not know, at any level, in exit 2.
An --out that cannot be written is a configuration error too."""

import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from nftrack.cli import main as cli_main
from nftrack.harness import ScenarioConfig

DESK = json.loads((Path(__file__).resolve().parent.parent / "configs" / "desk.json").read_text())

# Every run is one filter or CRB step (one trial), or a two-point Fisher sweep
# over small arrays, in this process: no --threads, so no process pool starts.
COMMANDS = (
    ["track", "--steps", "1", "--trials", "1"],
    ["crb", "--steps", "1"],
    ["fisher", "--sweep", "nb:33:66:2"],
)


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _objects(node, path=()):
    """Paths of every object of a JSON document, the root included."""
    if isinstance(node, dict):
        yield path
        for key, value in node.items():
            yield from _objects(value, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


LEAVES = list(_leaves(DESK))
OBJECTS = list(_objects(DESK))
# The keys the loader knows: those that to_dict writes.
KNOWN = ScenarioConfig.from_dict(DESK).to_dict()

# Negative numbers stay small, so no antenna count or step count is ever huge.
BAD_VALUES = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0, 0.0, "x", [1.0], None]),
    st.integers(-1000, -1),
    st.floats(-1e3, -1e-3),
)


def _replaced(path, value):
    data = json.loads(json.dumps(DESK))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(LEAVES), BAD_VALUES, st.sampled_from(COMMANDS))
def test_malformed_config_leaf_exits_cleanly(tmp_path_factory, path, value, command):
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(_replaced(path, value)))
    assert cli_main([*command, "--config", str(cfg), "--out", str(tmp / "out.csv")]) in (0, 2, 3)


# Retired knobs and arbitrary names; any value, well-formed or not.
UNKNOWN_KEYS = st.one_of(
    st.sampled_from(["burn_in", "wrap_psi_rmse", "mo_iters", "mo_init", "N_B", "seed "]),
    st.text(min_size=1, max_size=8),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(OBJECTS), UNKNOWN_KEYS, st.one_of(BAD_VALUES, st.just(1)),
       st.sampled_from(COMMANDS))
def test_unknown_config_key_exits_2(tmp_path_factory, path, key, value, command):
    assume(key not in _at(DESK, path) and key not in _at(KNOWN, path))
    tmp = tmp_path_factory.mktemp("unknown")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(_replaced(path + (key,), value)))
    assert cli_main([*command, "--config", str(cfg), "--out", str(tmp / "out.csv")]) == 2


# ------------------------------------------------------------- fuzzed argv

# Each subcommand starts from a cheap run (one step, one trial, or a two-point
# sweep) and appends fuzzed options; argparse keeps the last value of a flag,
# so a fuzzed --steps or --trials replaces the cheap one.  Counts stay small:
# at most 3 steps, 2 trials and 120 RF chains.  --threads is only ever 1, so
# no process pool starts.
BASE_ARGV = {
    "track": ["track", "--steps", "1", "--trials", "1"],
    "crb": ["crb", "--steps", "1"],
    "fisher": ["fisher", "--sweep", "nb:33:66:2"],
}

FUZZED_OPTION = st.one_of(
    st.tuples(st.just("--steps"), st.integers(-3, 3).map(str)),
    st.tuples(st.just("--trials"), st.integers(-3, 2).map(str)),
    st.tuples(st.just("--nrf"), st.integers(-3, 120).map(str)),
    st.tuples(st.just("--seed"), st.sampled_from(["-1", "0", str(2**64), str(2**200), "1.5"])),
    st.tuples(st.just("--threads"), st.just("1")),
    # flags of another subcommand, unknown flags and malformed values
    st.tuples(
        st.sampled_from(["--sweep", "--policy", "--schemes", "--pm-dbm", "--bogus", "-x",
                         "--steps", "--nrf"]),
        st.sampled_from(["nb:33:66:2", "qom", "fd,mo:qom", "nope", "-1", "", "1e400"]),
    ),
    st.just(("--bogus",)),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(sorted(BASE_ARGV)), st.lists(FUZZED_OPTION, max_size=4))
def test_fuzzed_argv_exits_cleanly(tmp_path_factory, command, options):
    tmp = tmp_path_factory.mktemp("argv")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(DESK))
    argv = [*BASE_ARGV[command], *(tok for option in options for tok in option)]
    assert cli_main([*argv, "--config", str(cfg), "--out", str(tmp / "out.csv")]) in (0, 2, 3)


# ------------------------------------------------------------ unwritable --out


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("where", ["missing-dir", "is-dir"])
def test_unwritable_out_exits_2_before_any_trial(tmp_path, capsys, monkeypatch, command, where):
    def no_trial(*args):
        raise AssertionError("a trial ran before --out was checked")

    monkeypatch.setattr("nftrack.harness.run_trial", no_trial)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(DESK))
    out = tmp_path / "missing" / "out.csv" if where == "missing-dir" else tmp_path
    assert cli_main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write --out {out}: ")
    assert not (tmp_path / "missing").exists()
