from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import java_fixtures  # noqa: E402

from reforacle import java_executor  # noqa: E402


# Sample model outputs: a validated behavior-change verdict with its
# discriminating test, a compilation-error verdict, and a (wrong)
# behavior-preserved verdict.

SAMPLE_BC_OUTPUT = """{
  "verdict": "NO - BEHAVIOR CHANGE",
  "explanation": "The refactoring moved method m() from class B to class C. In the original program, m() calls super.k(), which invokes A.k() and returns 10. In the refactored program, super refers to B, so m() calls B.k() and returns 20, changing the observable output.",
  "junit_test": "import static org.junit.Assert.assertEquals;\\nimport org.junit.Test;\\n\\npublic class RefactoringBehaviorTest {\\n  @Test\\n  public void testMBehavior() {\\n    assertEquals(10, new C().m());\\n  }\\n}"
}"""

SAMPLE_CE_OUTPUT = """{
  "verdict": "NO - COMPILATION ERROR",
  "explanation": "The expression (flag ? 1 : 2) has type int. In Java, primitives do not have methods, so calling .byteValue() on an int is a compile-time error. The original code relies on autoboxing to Integer, which is not applied in the refactored form.",
  "junit_test": null
}"""

SAMPLE_YES_OUTPUT = """{
  "verdict": "YES",
  "explanation": "The refactored code compiles: the conditional expression (flag ? 1 : 2) has type Integer due to boxing, so calling .byteValue() is valid. Behavior is unchanged because the local variable iii was not used for anything other than immediately invoking byteValue().",
  "junit_test": null
}"""


@pytest.fixture(scope="session", autouse=True)
def private_temp_dir(tmp_path_factory):
    """The run's own temp directory, for this process (`tempfile.tempdir`)
    and the processes it starts (TMPDIR). The session fails if a toolchain
    workspace (`reforacle-*`) is left in it."""
    temp_dir = tmp_path_factory.mktemp("tmpdir")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("TMPDIR", str(temp_dir))
        patch.setattr(tempfile, "tempdir", str(temp_dir))
        yield temp_dir
    left = sorted(p.name for p in temp_dir.iterdir() if p.name.startswith("reforacle-"))
    if left:
        pytest.fail(f"workspaces left in {temp_dir}: {', '.join(left)}")


@pytest.fixture(scope="session")
def fixtures():
    return java_fixtures.FIXTURES


@pytest.fixture(scope="session")
def corpus_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("corpus")
    return java_fixtures.write_corpus(root)


@pytest.fixture(scope="session")
def mini_corpus_root(tmp_path_factory) -> Path:
    """Ten instances for pipeline tests: 5 CE, 3 BC, 2 preserving."""
    chosen = (
        java_fixtures.CE_FIXTURES[:5]
        + java_fixtures.BC_FIXTURES[:3]
        + java_fixtures.PRESERVING_FIXTURES[:2]
    )
    root = tmp_path_factory.mktemp("minicorpus")
    return java_fixtures.write_corpus(root, chosen)


def junit_classpath() -> tuple[str, ...]:
    env = os.environ.get("REFORACLE_JUNIT_CP", "")
    if env:
        return tuple(env.split(os.pathsep))
    candidates = [
        "/usr/share/java/junit4.jar",
        "/usr/share/java/junit.jar",
        "/usr/share/java/hamcrest-core.jar",
        "/usr/share/java/hamcrest.jar",
    ]
    return tuple(p for p in candidates if Path(p).exists())


@pytest.fixture(scope="session")
def jdk() -> java_executor.RealToolchain:
    """Real toolchain for compile-only checks; skips when absent."""
    config = java_executor.find_jdk(junit_classpath())
    if config is None:
        pytest.skip("no JDK on PATH")
    toolchain = java_executor.RealToolchain(config)
    yield toolchain
    toolchain.close()


@pytest.fixture(scope="session")
def junit_jdk(jdk) -> java_executor.RealToolchain:
    """Toolchain able to run JUnit tests; skips without a junit 4 classpath."""
    if not jdk.config.junit_classpath:
        pytest.skip("no JUnit 4 classpath (set REFORACLE_JUNIT_CP)")
    return jdk
