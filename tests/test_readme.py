import re
from pathlib import Path

from deepmp.config import RunConfig, load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_as_written(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_config_block_loads_as_the_defaults(tmp_path):
    # the block says it shows the defaults, so it must load as exactly them
    (block,) = re.findall(r"```ini\n(.*?)```",
                          README.read_text(encoding="utf-8"), flags=re.DOTALL)
    path = tmp_path / "config.ini"
    path.write_text(block, encoding="utf-8")
    assert load_config(path) == RunConfig()
