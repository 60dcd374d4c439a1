from __future__ import annotations

import os
import shutil
import subprocess
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


# JUnit 4 and hamcrest as Debian-style systems install them
SYSTEM_JARS = (
    "/usr/share/java/junit4.jar",
    "/usr/share/java/junit.jar",
    "/usr/share/java/hamcrest-core.jar",
    "/usr/share/java/hamcrest.jar",
)
# the benchmark's JUnit 4 stand-in: the runner, @Test and Assert, as sources
JUNIT_STAND_IN = Path(__file__).resolve().parents[1] / "perfbench" / "junit"


def junit_classpath(tmp_path_factory) -> tuple[str, ...]:
    """REFORACLE_JUNIT_CP, else the system's JUnit 4 jars, else the JUnit 4
    stand-in compiled with the javac on PATH; () without a javac."""
    env = os.environ.get("REFORACLE_JUNIT_CP", "")
    if env:
        return tuple(env.split(os.pathsep))
    system = tuple(p for p in SYSTEM_JARS if Path(p).exists())
    if any("junit" in Path(p).name for p in system):
        return system
    javac = shutil.which("javac")
    if javac is None:
        return ()
    classes = tmp_path_factory.mktemp("junit")
    sources = sorted(str(p) for p in JUNIT_STAND_IN.rglob("*.java"))
    subprocess.run([javac, "-d", str(classes), *sources], check=True, capture_output=True,
                   timeout=120)
    return (str(classes),)


@pytest.fixture(scope="session")
def jdk(tmp_path_factory) -> java_executor.RealToolchain:
    """The JDK of the javac on PATH, found as the CLI finds it, with a JUnit 4
    classpath; skips when there is none."""
    config = java_executor.ToolchainConfig(junit_classpath=junit_classpath(tmp_path_factory))
    try:
        toolchain = java_executor.RealToolchain(config)
    except java_executor.ToolchainUnavailable as err:
        pytest.skip(f"no JDK on PATH ({err})")
    yield toolchain
    toolchain.close()
