import configparser
import re
import shlex
from dataclasses import fields
from pathlib import Path

from deepmp.cli import main
from deepmp.config import _SCHEMA, RunConfig, load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_as_written(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_demo_block_runs_as_written(tmp_path):
    # the documented run, one CLI call a line, with its run directory moved
    # under tmp_path
    (block,) = re.findall(r"```bash\n(deepmp --out runs/demo .*?)```",
                          README.read_text(encoding="utf-8"), flags=re.DOTALL)
    for line in block.splitlines():
        program, *argv = (word.replace("runs/demo", str(tmp_path / "demo"))
                          for word in shlex.split(line, comments=True))
        assert program == "deepmp"
        assert main(argv) == 0, line


def test_readme_config_block_loads_as_the_defaults(tmp_path):
    # the block says it shows the defaults, so it must load as exactly them
    (block,) = re.findall(r"```ini\n(.*?)```",
                          README.read_text(encoding="utf-8"), flags=re.DOTALL)
    path = tmp_path / "config.ini"
    path.write_text(block, encoding="utf-8")
    assert load_config(path) == RunConfig()
    # a key left out would load as its default too, so each of the block
    # and the schema must name exactly the config's fields
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(block)
    names = sorted(field.name for field in fields(RunConfig))
    assert sorted(key for section in parser.sections()
                  for key in parser[section]) == names
    assert sorted(key for keys in _SCHEMA.values() for key in keys) == names
