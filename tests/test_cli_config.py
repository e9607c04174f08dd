"""The CLI's config surface, pinned.

* every subcommand keeps its option strings;
* every simulation command builds the same ``SimulationConfig`` (by
  ``stable_hash()``, so existing result caches keep hitting) with no
  flag and with every config flag it exposes;
* SIMULATOR.md's configuration reference lists exactly the
  ``SimulationConfig`` fields and defaults;
* hostile input is a usage error (exit 2) naming what was wrong.
"""

import argparse
import ast
import dataclasses
import importlib.util
import re
from pathlib import Path

import pytest

import repro.analysis
import repro.cli as cli
from repro.simulation.config import SimulationConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

OPTIONS = {
    "list": "",
    "verify": "--connectivity --topology",
    "turns": "",
    "simulate": "--backend --buffer-depth --cycles --deadlock-threshold --load "
    "--max-retries --packet-timeout --pattern --profile --retry-backoff-base "
    "--retry-backoff-cap --seed --selection --selection-threshold --topology "
    "--vc --warmup",
    "sweep": "--backend --buffer-depth --cache --cache-dir --cycles "
    "--deadlock-threshold --fail-fast --failure-manifest --force --jobs "
    "--journal --keep-going --loads --max-point-retries --max-retries "
    "--no-cache --packet-timeout --pattern --point-timeout --resume "
    "--retry-backoff-base --retry-backoff-cap --seed --selection "
    "--selection-threshold --topology --vc --warmup",
    "trace": "--backend --buffer-depth --cycles --deadlock-threshold --events "
    "--heatmap --json --load --max-retries --out --packet-timeout --pattern "
    "--profile --retry-backoff-base --retry-backoff-cap --seed --selection "
    "--selection-threshold --series-period --topology --vc --warmup",
    # `--full` was an alias of `--preset full`.
    "figure": "--backend --cache --cache-dir --deadlock-threshold --fail-fast "
    "--failure-manifest --force --jobs --journal --keep-going "
    "--max-point-retries --max-retries --no-cache --packet-timeout "
    "--point-timeout --preset --resume --retry-backoff-base "
    "--retry-backoff-cap --selection --selection-threshold",
    "faults": "--algorithms --backend --cache --cache-dir --campaign-seed "
    "--cycles --deadlock-threshold --drain --fail-fast --failure-manifest "
    "--fault-start --faults --force --jobs --journal --json --keep-going "
    "--load --max-point-retries --max-retries --no-cache --packet-timeout "
    "--pattern --point-timeout --resume --retry-backoff-base "
    "--retry-backoff-cap --seed --selection --selection-threshold --topology "
    "--trials --warmup",
    "selection": "--algorithms --backend --cache --cache-dir --cycles "
    "--fail-fast --failure-manifest --fault-links --fault-seed --force --jobs "
    "--journal --json --keep-going --loads --max-point-retries --no-cache "
    "--patterns --point-timeout --policies --resume --seed "
    "--selection-threshold --topology --warmup",
    "saturation": "--algorithms --backend --buffer-depth --cache --cache-dir "
    "--cycles --deadlock-threshold --fail-fast --failure-manifest --force "
    "--high --iterations --jobs --journal --json --keep-going --low "
    "--max-point-retries --max-retries --no-cache --packet-timeout --patterns "
    "--point-timeout --resume --retry-backoff-base --retry-backoff-cap --seed "
    "--selection --selection-threshold --topology --vc --warmup",
    "bench": "--backend --check-against --out --quick",
}


def _subparsers():
    parser = cli.build_parser()
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def test_option_strings_per_subcommand():
    subparsers = _subparsers()
    assert set(subparsers) == set(OPTIONS)
    for name, subparser in subparsers.items():
        options = sorted(
            option
            for action in subparser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        )
        assert options == OPTIONS[name].split(), name


# One valid, non-default value for every config flag.
EVERY_CONFIG_FLAG = {
    "--load": "0.7",
    "--warmup": "123",
    "--cycles": "456",
    "--seed": "9",
    "--buffer-depth": "2",
    "--vc": "2",
    "--drain": "77",
    "--deadlock-threshold": "4321",
    "--packet-timeout": "600",
    "--max-retries": "3",
    "--retry-backoff-base": "16",
    "--retry-backoff-cap": "512",
    "--selection": "max-credits",
    "--selection-threshold": "4",
    "--backend": "array",
}


class _Captured(Exception):
    pass


# Per command: its argv, and where the config it builds is handed on —
# (owner, attribute, how to read the config off that call).
CAPTURE = {
    "simulate": (
        ["simulate", "xy", "--topology", "mesh:4x4"],
        (cli, "make_simulator", lambda args, kwargs: args[2]),
    ),
    "trace": (
        ["trace", "xy", "--topology", "mesh:4x4"],
        (cli, "make_simulator", lambda args, kwargs: args[2]),
    ),
    "sweep": (
        ["sweep", "xy", "--topology", "mesh:4x4", "--no-cache"],
        (cli, "run_sweep", lambda args, kwargs: args[3]),
    ),
    "saturation": (
        ["saturation", "--topology", "mesh:4x4", "--algorithms", "xy", "--no-cache"],
        (
            repro.analysis,
            "find_saturation_many",
            lambda args, kwargs: kwargs["base_config"],
        ),
    ),
    "faults": (
        ["faults", "--topology", "mesh:4x4", "--no-cache"],
        (cli, "run_fault_campaign", lambda args, kwargs: kwargs["base_config"]),
    ),
    # Every point of the comparison runs at the threshold passed beside
    # the base config.
    "selection": (
        ["selection", "--topology", "mesh:4x4", "--no-cache"],
        (
            cli,
            "run_selection_comparison",
            lambda args, kwargs: dataclasses.replace(
                kwargs["base_config"],
                selection_threshold=kwargs["selection_threshold"],
            ),
        ),
    ),
    "figure": (
        ["figure", "13", "--no-cache"],
        (cli.FIGURE_HARNESSES, "fig13", lambda args, kwargs: args[0].config()),
    ),
}

# ``figure`` once accepted the two backoff flags and dropped them, so
# no earlier hash covers them; test_cli.py checks that they now arrive.
UNPINNED = {("figure", "--retry-backoff-base"), ("figure", "--retry-backoff-cap")}

# (no config flag, every config flag the command exposes)
CONFIG_HASHES = {
    "faults": (
        "933ed5f6e31d8a0206ce903eded0759c5a0bdf2f779d5738112ef42934548663",
        "34ba8d873d4420bbb4c3b52dce051bd262806bcee18bf86b94a9bc6dc8a36bab",
    ),
    "figure": (
        "05738ef58eadc20a40bb6f2bfb6189050f89cd0c4effb4828613f6518643aabd",
        "879776453a337e7c1512fa9be50ddb2d077c0165903dd23692f1a7f2684e3fc6",
    ),
    "saturation": (
        "a283f03e8b06a6a45774e3c4ed49712d5cab5932ca2a134f265142551f593758",
        "22940e9abb08b5a46d18a31d4341ed94770235be3f1aa8c7c892f4b75f74b854",
    ),
    "selection": (
        "9786e2fd1bfb6411e9413da6ee0c573b1b547d2956a63b3852e526826b574931",
        "06632b4b42fd41dc6bbeab61d876e9f2d33c5742878b22e14eec7f8336b182cd",
    ),
    "simulate": (
        "a283f03e8b06a6a45774e3c4ed49712d5cab5932ca2a134f265142551f593758",
        "f77329e3976c1523f4764bd3de9150af00b0d139bfb03e62302c4ab499a5232e",
    ),
    "sweep": (
        "a283f03e8b06a6a45774e3c4ed49712d5cab5932ca2a134f265142551f593758",
        "22940e9abb08b5a46d18a31d4341ed94770235be3f1aa8c7c892f4b75f74b854",
    ),
    "trace": (
        "a2a973e3b929c8460b78d6e4f5623df61e383d02d4b40a81c720d2dad175e966",
        "4881fed744c41e5f247a52265fb0de019588a3dc4e2a36aaf99b636d0d9938ac",
    ),
}


def _config_hash(monkeypatch, tmp_path, command, every_flag):
    argv, (owner, attribute, read) = CAPTURE[command]
    argv = list(argv)
    if command == "trace":
        argv += ["--out", str(tmp_path / "trace.jsonl")]
    if every_flag:
        for flag, value in EVERY_CONFIG_FLAG.items():
            if flag in OPTIONS[command].split() and (command, flag) not in UNPINNED:
                argv += [flag, value]

    def capture(*args, **kwargs):
        raise _Captured(read(args, kwargs))

    if isinstance(owner, dict):
        monkeypatch.setitem(owner, attribute, capture)
    else:
        monkeypatch.setattr(owner, attribute, capture)
    with pytest.raises(_Captured) as info:
        cli.main(argv)
    config = info.value.args[0]
    assert isinstance(config, SimulationConfig)
    return config.stable_hash()


@pytest.mark.parametrize("command", sorted(CAPTURE))
def test_config_built_per_subcommand(command, monkeypatch, tmp_path):
    got = tuple(
        _config_hash(monkeypatch, tmp_path, command, every_flag)
        for every_flag in (False, True)
    )
    assert got == CONFIG_HASHES[command]


def _knob_table():
    text = (REPO_ROOT / "docs" / "SIMULATOR.md").read_text(encoding="utf-8")
    section = text.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
    return [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if re.match(r"\|\s*`", line)
    ]


def test_simulator_md_knob_table_matches_the_dataclass():
    rows = _knob_table()
    fields = dataclasses.fields(SimulationConfig)
    assert [row[0].strip("`") for row in rows] == [f.name for f in fields]
    for row, field in zip(rows, fields):
        if row[1].startswith("`"):
            assert ast.literal_eval(row[1].strip("`")) == field.default, field.name


def test_simulator_md_knob_table_names_each_flag_and_its_commands():
    subparsers = _subparsers()
    flag_of = {field: flag for flag, field, _ in cli.CONFIG_FLAGS}
    for row in _knob_table():
        field = row[0].strip("`")
        if field not in flag_of:
            assert row[3] == "—", field
            continue
        flag = flag_of[field]
        commands = [
            name
            for name, subparser in subparsers.items()
            if name != "bench"
            and any(flag in action.option_strings for action in subparser._actions)
        ]
        assert row[3] == f"`{flag}`: {', '.join(commands)}", field


# Hostile input: a usage error (exit 2) naming what was wrong, never a
# traceback.  Each case lists the strings the message must contain.
HOSTILE = [
    (["simulate", "xy", "--topology", "mesh:4x4", "--load", "-1"], ["--load", "-1"]),
    # An infinite rate used to hang generation; NaN passed every check.
    (["simulate", "xy", "--topology", "mesh:4x4", "--load", "inf"], ["--load", "inf"]),
    (["simulate", "xy", "--topology", "mesh:4x4", "--load", "nan"], ["--load", "nan"]),
    (["simulate", "xy", "--buffer-depth", "0"], ["--buffer-depth", "0"]),
    (["simulate", "xy", "--vc", "0"], ["--vc", "0"]),
    (["simulate", "xy", "--warmup", "-5"], ["--warmup", "-5"]),
    (["sweep", "xy", "--loads", "0.3,x"], ["--loads", "0.3,x"]),
    (["simulate", "mystery"], ["mystery"]),
    (["simulate", "west-first", "--topology", "cube:3"], ["west-first", "cube:3"]),
    (["faults", "--faults", "1,x"], ["--faults", "1,x"]),
    (["sweep", "xy", "--jobs", "0"], ["--jobs", "0"]),
    (["sweep", "xy", "--point-timeout", "-1"], ["--point-timeout", "-1"]),
]


@pytest.mark.parametrize(
    "argv, named", HOSTILE, ids=[" ".join(argv) for argv, _ in HOSTILE]
)
def test_hostile_input_is_a_usage_error(argv, named, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    for text in named:
        assert text in err


def _collect_experiments():
    path = REPO_ROOT / "scripts" / "collect_experiments.py"
    spec = importlib.util.spec_from_file_location("collect_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_collect_experiments_uses_the_shared_runner_flags(capsys):
    script = _collect_experiments()
    assert script.add_runner_flags is cli.add_runner_flags
    with pytest.raises(SystemExit) as info:
        script.main(["--point-timeout", "-1"])
    assert info.value.code == 2
    assert "--point-timeout -1" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        script.main(["--help"])
    assert "--failure-manifest" in capsys.readouterr().out
