"""The command line's output contract: every call of the seeded corpus in
`tests/cli_corpus.py`, in text and under `--json`, gives the exit status,
stdout, stderr and `--trace` file whose digest `tests/data/cli_corpus.json`
records.  A change that alters an output on purpose regenerates the file
with `PYTHONPATH=src python tests/cli_corpus.py --write`, which prints the
changed calls.
"""

import json

from tests import cli_corpus

COMMANDS = {"normalize", "is-identity", "compare", "embed", "factor", "reduce",
            "chain-demo", "independence", "pwos-min"}


def test_corpus_covers_every_subcommand_in_both_forms():
    calls = [argv for argv, _ in cli_corpus.corpus()]
    assert {argv[0] for argv in calls if "--json" in argv} == COMMANDS
    assert {argv[0] for argv in calls if "--json" not in argv} == COMMANDS


def test_every_call_matches_its_recorded_digest(tmp_path):
    recorded = json.loads(cli_corpus.DATA.read_text(encoding="utf-8"))
    assert cli_corpus.changed(recorded, cli_corpus.digests(tmp_path)) == []
