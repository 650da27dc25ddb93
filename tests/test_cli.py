import pytest
import yaml

from flowfsm import programs
from flowfsm.harness import cli

from helpers import GAP_CASES, patched_doc


@pytest.mark.parametrize("name", programs.BUNDLED)
def test_validate_accepts_bundled_programs(name, capsys):
    assert cli.main(["validate", "--program", str(programs.bundled_path(name))]) == 0
    assert f"program:       {name}" in capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(GAP_CASES))
def test_validate_rejects_loader_gaps(case, tmp_path, capsys):
    base, path, value, location = GAP_CASES[case]
    program = tmp_path / f"{case}.yaml"
    program.write_text(yaml.safe_dump(patched_doc(base, path, value)))
    assert cli.main(["validate", "--program", str(program)]) == cli.EXIT_VALIDATION
    assert f"{program}: {location}" in capsys.readouterr().err
