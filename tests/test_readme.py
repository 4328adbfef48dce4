"""The README's "A minimal fit in code" runs as written, its `bowl` command lines parse, and `bowl`
exports only its entry points.

The example is read out of README.md and run on a small scenario dataset,
and each command line is parsed by the CLI's own parser without running it,
so the documented top-level names and flags and the sampler internals left
out of `bowl/__init__.py` cannot drift unseen.
"""

import shlex
from pathlib import Path

import pytest

import bowl
from bowl.cli import build_parser
from bowl.pseudo_model import reward_transform
from bowl.simulate import ScenarioSpec, generate_scenario_raw

README = Path(__file__).resolve().parent.parent / "README.md"
SAMPLER_INTERNALS = ("MvnParams", "sample_mvn", "ChainState", "SuffStats", "build_suffstats", "draw_lambda",
                     "draw_beta_normal", "draw_beta_ep", "draw_omega", "draw_gamma_and_beta_ss")


def library_example() -> str:
    """The first python block after the README's "A minimal fit in code:" line."""
    text = README.read_text().split("A minimal fit in code:", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def readme_commands() -> list[str]:
    """Every `bowl ...` line of the README's bash blocks, a line ending in a backslash joined to the next."""
    blocks = [block.split("```", 1)[0] for block in README.read_text().split("```bash\n")[1:]]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("bowl ")]


COMMANDS = readme_commands()


def test_readme_has_every_subcommand():
    assert {shlex.split(line)[1] for line in COMMANDS} == {"fit", "predict", "reproduce", "verify"}


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert args.command == shlex.split(line)[1]


def test_library_example_runs():
    x, a, raw_rewards, _ = generate_scenario_raw(ScenarioSpec(1, 40, seed=3, p=3), 0)
    x_new = generate_scenario_raw(ScenarioSpec(1, 7, seed=4, p=3), 1)[0]
    scope = {"x": x, "a": a, "r": reward_transform(raw_rewards)[0], "x_new": x_new}
    exec(library_example(), scope)
    assert scope["draws"].beta.shape == (1, 350, 4)
    assert [scope[name].shape for name in ("prob_plus", "action", "certainty")] == [(7,)] * 3


def test_package_exports_no_sampler_internals():
    assert [name for name in SAMPLER_INTERNALS if hasattr(bowl, name)] == []
