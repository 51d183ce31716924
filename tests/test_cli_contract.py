"""The CLI's exit contract over its whole surface: no traceback.

``repro`` returns 0 when a command succeeds, 1 when it ran and found a
problem, and 2 after one ``error:`` line on stderr when it refuses an
input; argparse exits 2 itself on a malformed command line.  Nothing
else may leave :func:`repro.cli.main`.

Two checks, neither of which runs a simulation:

* every work entry point a handler imports is stubbed to refuse with
  one library error class after another, and one command line per
  command must turn each refusal into exit 2;
* per command, hypothesis makes one flag of ``test_cli_surface.SURFACE``
  at a time hostile, with a value chosen by the parser's type, while
  the work stays stubbed to refuse; ``main`` must keep the contract.
"""

import argparse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _OUTPUT_FLAGS, build_parser, main
from repro.errors import (
    AnalysisError,
    ExperimentError,
    MediaError,
    ProtocolError,
)

from .test_cli_surface import SURFACE

#: Every work entry point a handler imports when it runs, by dotted path.
WORK = ("repro.experiments.runner.run_spec",
        "repro.experiments.runner.run_pair_experiment",
        "repro.experiments.cache.load_or_run_study",
        "repro.experiments.modern.run_modern_scorecard",
        "repro.experiments.aggregate.run_boundary_study",
        "repro.experiments.tcp_friendly.run_probe",
        "repro.core.generator.generate_flow",
        "repro.validate.run_differential")

#: A command line for each way a command reaches a stubbed entry point.
REFUSED = (["study", "--no-cache"], ["study"], ["figure", "fig01"],
           ["probe", "wmp", "300", "0.1"], ["boundary"], ["scorecard"],
           ["scorecard", "--modern"], ["telemetry"], ["spans"], ["faults"],
           ["cc", "aimd"], ["repair"], ["validate"],
           ["validate", "--study"], ["generate", "wmp", "300", "10"])


def _stub_work(monkeypatch, error: type) -> None:
    def refuse(*args, **kwargs):
        raise error("stubbed refusal")

    for target in WORK:
        monkeypatch.setattr(target, refuse)


@pytest.mark.parametrize("error", [AnalysisError, ExperimentError,
                                   MediaError, ProtocolError])
@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_library_refusal_exits_two(argv, error, monkeypatch, capsys):
    _stub_work(monkeypatch, error)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stubbed refusal\n"


FLOATS = ("nan", "inf", "-inf", "0", "-0.0", "-1", "1e308")
INTS = ("0", "-1", str(2 ** 63))

#: The positionals a command needs that no drawn value stands in for.
POSITIONALS = {"family": "wmp", "figure_id": "fig01",
               "controller": "aimd", "scenario": "link-flap",
               "kbps": "300", "loss": "0.1", "duration": "10"}


def _actions(command: str):
    """The parser's actions for ``command``, keyed as in ``SURFACE``."""
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {"/".join(action.option_strings) or action.dest: action
            for action in commands.choices[command]._actions
            if not isinstance(action, argparse._HelpAction)}


def _values(key: str, action, files) -> tuple:
    """(hostile values, a sane value or None) for one flag, by its
    parser type; no hostile values for a flag none is drawn for."""
    sane = (action.default if action.option_strings
            else POSITIONALS.get(action.dest))
    sane = None if sane is None else str(sane)
    if action.type in (float, int):
        return (FLOATS if action.type is float else INTS), sane
    if key in _OUTPUT_FLAGS:
        return (files["missing-dir"], files["directory"]), files["writable"]
    if key == "path":
        return ((files["missing"], files["empty"], files["garbage"]),
                files["records"])
    return (), sane


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_drawn_values_keep_the_contract(command, tmp_path, monkeypatch,
                                        capsys):
    _stub_work(monkeypatch, ExperimentError)
    files = {"missing-dir": str(tmp_path / "missing" / "out"),
             "directory": str(tmp_path),
             "writable": str(tmp_path / "out"),
             "missing": str(tmp_path / "missing.in")}
    for name, text in (("empty", ""), ("garbage", "\x00not a record\n"),
                       ("records", "".join(
                           f'{{"index": {i}, "rebuffer_ratio": 0.01}}\n'
                           for i in range(4)))):
        (tmp_path / name).write_text(text)
        files[name] = str(tmp_path / name)
    actions = _actions(command)
    assert set(actions) == set(SURFACE[command])
    values = {key: _values(key, action, files)
              for key, action in actions.items()}
    drawable = [key for key, (hostile, _) in values.items() if hostile]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def check(data):
        # One flag hostile at a time, as a user mistypes one; each other
        # flag with a drawn value is sane or left out.
        target = data.draw(st.sampled_from(drawable or [None]), label="flag")
        argv = [command]
        for key, action in actions.items():
            hostile, sane = values[key]
            positional = not action.option_strings
            if key == target:
                value = data.draw(st.sampled_from(hostile), label=key)
            elif sane is not None and (
                    positional or (hostile and data.draw(st.booleans()))):
                value = sane
            else:
                continue
            argv += [value] if positional else [key, value]
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: e.g. `--scale -inf`
            assert exc.code == 2, argv
            return
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (
                argv, err)

    check()
