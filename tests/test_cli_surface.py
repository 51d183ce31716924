"""The CLI surface, pinned: every subcommand's flags and their defaults.

Walks the subparsers of :func:`repro.cli.build_parser` and compares
each option (keyed by its option strings, or its dest for positionals)
and its default against a snapshot.  A refactor of how the parsers are
assembled must leave this table unchanged; adding, removing or
re-defaulting a flag is a deliberate edit to the snapshot.
"""

import argparse

from repro.cli import build_parser

SURFACE = {
    "boundary": {"--clients": 4, "--duration": 40.0, "--kbps": 150.0,
                 "--seed": 2002},
    "cache": {"action": "info"},
    "cc": {"--list": False, "--scale": 0.12, "--seed": 2002, "--set": 3,
           "controller": None},
    "faults": {"--events": None, "--list": False, "--repair": False,
               "--scale": 0.25, "--seed": 2002, "scenario": "link-flap"},
    "figure": {"--csv": None, "--plots": False, "--scale": 1.0,
               "--seed": 2002, "figure_id": None},
    "generate": {"--csv": None, "--pcap": None, "--seed": 0,
                 "duration": None, "family": None, "kbps": None},
    "pcap-info": {"path": None},
    "pool": {"action": "info"},
    "probe": {"--duration": 30.0, "--rtt": 0.2, "--scaling": False,
              "family": None, "kbps": None, "loss": None},
    "repair": {"--faults": "burst-loss", "--fec-group": 8, "--json": None,
               "--no-nack": False, "--scale": 0.12, "--seed": 2002,
               "--set": 3},
    "scorecard": {"--jobs": 1, "--modern": False, "--scale": 1.0,
                  "--seed": 2002, "--svg": None, "--transports": None},
    "spans": {"--chrome-trace": None, "--jobs": 1, "--json": None,
              "--jsonl": None, "--scale": 1.0, "--seed": 2002, "--top": 5},
    "study": {"--fast-path": None, "--html": None, "--jobs": 1,
              "--no-cache": False, "--plots": False, "--progress": False,
              "--scale": 1.0, "--seed": 2002, "--stream-jsonl": None},
    "table1": {},
    "telemetry": {"--events": None, "--jobs": 1, "--json": None,
                  "--profile": False, "--ring-capacity": None,
                  "--scale": 1.0, "--seed": 2002, "--series-csv": None,
                  "--top": 12},
    "validate": {"--abr": False, "--cc": None, "--fast-path": None,
                 "--faults": None, "--golden": False, "--jobs": 2,
                 "--repair": False, "--scale": 0.25, "--seed": 2002,
                 "--set": None, "--study": False},
    "watch": {"--follow": False, "--idle-timeout": 5.0, "--metric": None,
              "--min-baseline": 3, "--min-delta": 0.02, "--window": 8,
              "--z": 3.0, "path": None},
}


def _surface(parser: argparse.ArgumentParser) -> dict:
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {name: {"/".join(action.option_strings) or action.dest:
                   action.default
                   for action in sub._actions
                   if not isinstance(action, argparse._HelpAction)}
            for name, sub in commands.choices.items()}


def test_every_subcommand_keeps_its_flags_and_defaults():
    assert _surface(build_parser()) == SURFACE
