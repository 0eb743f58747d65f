"""Determinism linter: every ND rule, alias resolution, repo cleanliness."""

import pytest

from repro.common.errors import ConfigurationError
from repro.frontend.lint import (
    FLOAT_EQ_RULE,
    GLOBAL_RANDOM_RULE,
    MUTABLE_DEFAULT_RULE,
    NUMPY_RANDOM_RULE,
    WALLCLOCK_RULE,
    default_lint_root,
    lint_paths,
    lint_source,
)

pytestmark = pytest.mark.frontend


def _rules(src: str) -> list[str]:
    return [v.rule for v in lint_source(src)]


# ------------------------------------------------------------ ND001 wallclock

@pytest.mark.parametrize("src", [
    "import time\nstamp = time.time()\n",
    "import time\nstamp = time.time_ns()\n",
    "import time as t\nstamp = t.time()\n",
    "from time import time\nstamp = time()\n",
    "import datetime\nnow = datetime.datetime.now()\n",
    "from datetime import datetime\nnow = datetime.utcnow()\n",
    "from datetime import date\ntoday = date.today()\n",
])
def test_wallclock_flagged(src):
    assert _rules(src) == [WALLCLOCK_RULE]


def test_perf_counter_stays_legal():
    assert _rules("import time\nt0 = time.perf_counter()\n") == []
    assert _rules("import time\nt0 = time.monotonic()\n") == []


# -------------------------------------------------------- ND002 global random

@pytest.mark.parametrize("src", [
    "import random\nx = random.random()\n",
    "import random\nrandom.seed(0)\n",
    "import random\nx = random.randint(0, 9)\n",
    "from random import shuffle\nshuffle([])\n",
])
def test_global_random_flagged(src):
    assert _rules(src) == [GLOBAL_RANDOM_RULE]


def test_seeded_random_instance_stays_legal():
    # Constructing a seeded instance is the *fix* the rule recommends, and
    # instance-method calls resolve through a local name, not the module.
    src = "import random\nrng = random.Random(7)\nx = rng.random()\n"
    assert _rules(src) == []


# --------------------------------------------------------- ND003 numpy.random

@pytest.mark.parametrize("src", [
    "import numpy\nx = numpy.random.rand(3)\n",
    "import numpy as np\nx = np.random.rand(3)\n",
    "import numpy as np\nnp.random.seed(0)\n",
    "import numpy as np\nx = np.random.normal(0.0, 1.0)\n",
])
def test_numpy_global_rng_flagged(src):
    assert _rules(src) == [NUMPY_RANDOM_RULE]


@pytest.mark.parametrize("src", [
    "import numpy as np\nrng = np.random.default_rng(7)\n",
    "import numpy as np\nss = np.random.SeedSequence(7)\n",
    "import numpy as np\ng = np.random.Generator(np.random.PCG64(7))\n",
])
def test_numpy_seeded_constructors_stay_legal(src):
    assert _rules(src) == []


def test_numpy_random_submodule_alias_resolves():
    # ``from numpy import random as nr`` must canonicalize to
    # ``numpy.random.*`` so the alias cannot launder a global-RNG call.
    assert _rules(
        "from numpy import random as nr\nx = nr.rand(3)\n"
    ) == [NUMPY_RANDOM_RULE]
    assert _rules(
        "from numpy import random as nr\nrng = nr.default_rng(7)\n"
    ) == []


# --------------------------------------------------- ND005 mutable defaults

@pytest.mark.parametrize("src", [
    "def f(x, acc=[]):\n    return acc\n",
    "def f(x, table={}):\n    return table\n",
    "def f(x, seen=set()):\n    return seen\n",
    "def f(x, acc=[i for i in range(3)]):\n    return acc\n",
    "def f(*args, acc=[]):\n    return acc\n",  # keyword-only default
    "g = lambda x, acc=[]: acc\n",
    "async def f(x, acc=[]):\n    return acc\n",
])
def test_mutable_default_flagged(src):
    assert _rules(src) == [MUTABLE_DEFAULT_RULE]


def test_mutable_default_message_names_the_literal_kind():
    violations = lint_source("def f(x, table={}):\n    return table\n")
    assert "dict literal" in violations[0].message
    assert "default to None" in violations[0].message


@pytest.mark.parametrize("src", [
    "def f(x, acc=None):\n    return acc or []\n",
    "def f(x, acc=()):\n    return acc\n",  # tuples are immutable
    "def f(x, n=3, name='k'):\n    return n\n",
    "def f(*args, acc=None):\n    return acc\n",
    "def f(x):\n    acc = []\n    return acc\n",  # body allocation is the fix
])
def test_safe_defaults_stay_legal(src):
    assert _rules(src) == []


# ------------------------------------------------------------- ND004 float ==

def test_float_equality_flagged():
    assert _rules("ok = x == 1.5\n") == [FLOAT_EQ_RULE]
    assert _rules("ok = 2.5 != y\n") == [FLOAT_EQ_RULE]


def test_zero_sentinel_and_int_equality_stay_legal():
    assert _rules("ok = x == 0.0\n") == []
    assert _rules("ok = x == 3\n") == []
    assert _rules("ok = x <= 1.5\n") == []


# ----------------------------------------------------------------- mechanics

def test_violation_format_is_location_anchored():
    violations = lint_source("import time\nstamp = time.time()\n", "mod.py")
    assert len(violations) == 1
    formatted = violations[0].format()
    assert formatted.startswith("mod.py:2:")
    assert "ND001" in formatted


def test_syntax_error_becomes_nd000():
    violations = lint_source("def broken(:\n", "bad.py")
    assert [v.rule for v in violations] == ["ND000"]


def test_lint_paths_walks_directories(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("import time\nt = time.time()\n")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    violations = lint_paths([tmp_path])
    assert [v.rule for v in violations] == [WALLCLOCK_RULE]
    assert violations[0].path.endswith("a.py")


@pytest.mark.parametrize("name", ["missing.py", "missing_dir"])
def test_lint_paths_rejects_missing_path(tmp_path, name):
    with pytest.raises(ConfigurationError, match="no such file or directory"):
        lint_paths([tmp_path / name])


# ----------------------------------------------------- the repo's own gate

def test_repo_source_tree_is_lint_clean():
    violations = lint_paths([default_lint_root()])
    assert violations == [], [v.format() for v in violations]


def test_cli_lint_exits_nonzero_on_synthetic_violation(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "nondeterministic.py"
    bad.write_text(
        "import random\n"
        "import time\n"
        "jitter = random.random() * time.time()\n"
    )
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "ND001" in out and "ND002" in out
