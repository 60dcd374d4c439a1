"""Inputs of the benchmark's workloads: corpora, scripted answers and the
answer label each attempt must score.

Every input is a pure function of the workload name and the seed. The
expected answer label of an attempt is derived here from the instance's
ground truth and the kind of scripted answer, never from the harness,
so a harness that scores an attempt differently shows up as a failure.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

# Kinds of scripted answer
YES = "yes"                      # plain JSON, verdict YES
CE = "ce"                        # plain JSON, verdict NO - COMPILATION ERROR
FENCED = "fenced"                # verdict YES inside a markdown fence
TWO_CLASSES = "two-classes"      # BC claim whose test has two public classes
NOT_JSON = "not-json"            # prose, no JSON object
EXPOSING = "exposing"            # BC claim with a test that passes only on the original
VACUOUS = "vacuous"              # BC claim with a test that passes on both versions
MISSING_CLASS = "missing-class"  # BC claim with a test that names a missing class

PYTHON_PATH_ANSWERS = (YES, CE, FENCED, TWO_CLASSES, NOT_JSON)
CLAIM_ANSWER = {"BC": EXPOSING, "PRESERVING": VACUOUS, "CE": MISSING_CLASS}

_LABEL_OF_ANSWER = {
    YES: "SAID_YES",
    FENCED: "SAID_YES",
    CE: "SAID_CE",
    TWO_CLASSES: "SAID_BC_TEST_NOT_COMPILING",
    NOT_JSON: "PARSE_ERROR",
    EXPOSING: "SAID_BC_VALID",
    VACUOUS: "SAID_BC_TEST_NOT_DISCRIMINATING",
    MISSING_CLASS: "SAID_BC_TEST_NOT_COMPILING",
}
_CORRECT = {("BC", "SAID_BC_VALID"), ("CE", "SAID_CE"), ("PRESERVING", "SAID_YES")}

# The backend entries every workload runs against; they have no live
# endpoint, so an answer missing from the replay store is a call error.
BACKENDS = ({"name": "model-a", "endpoint": "local"}, {"name": "model-b", "endpoint": "local"})


def expected_row(ground_label: str, answer_kind: str) -> dict:
    """The answer label and correctness one attempt must be scored with."""
    label = _LABEL_OF_ANSWER[answer_kind]
    return {
        "answer_label": label,
        "correct": (ground_label, label) in _CORRECT,
        "inconclusive": False,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str                  # value of the CLI's --mode: fullsource, diffonly or metamorphic
    backends: tuple[str, ...]
    temperatures: tuple[float, ...]
    attempts: int
    metamorphic_seed: bool     # pass --seed (the metamorphic master seed)

    @property
    def config_count(self) -> int:
        """Number of run configurations: one per backend and temperature."""
        return len(self.backends) * max(1, len(self.temperatures))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="python-path",
            why="300 synthetic instances, metamorphic mode, 2 backends x 2 temperatures x 5 "
            "attempts; no answer reaches javac/java, so only the Python layers work",
            mode="metamorphic",
            backends=("model-a", "model-b"),
            temperatures=(0.0, 0.7),
            attempts=5,
            metamorphic_seed=True,
        ),
        Workload(
            name="claims-repeat",
            why="10 hand-written fixtures (all 6 BC), full-source mode, 2 attempts of one BC "
            "claim each; every (program, test) pair repeats (repeat_share 0.525)",
            mode="fullsource",
            backends=("model-a",),
            temperatures=(),
            attempts=2,
            metamorphic_seed=False,
        ),
        Workload(
            name="claims-unique",
            why="10 synthetic instances (6 BC), diff mode, 2 attempts of one BC claim each; "
            "every program and test text is distinct (repeat_share 0)",
            mode="diffonly",
            backends=("model-a",),
            temperatures=(),
            attempts=2,
            metamorphic_seed=False,
        ),
    )
}

PYTHON_PATH_INSTANCES = 300
# Both claim workloads use every BC fixture and the first two CE and PRESERVING
# ones: 20 claims, about 25 s at --jobs 2 on 2 cores. All 20 fixtures would
# double that, and 22 runs per workload would no longer fit in an hour.
CLAIM_MIX = {"BC": 6, "CE": 2, "PRESERVING": 2}


def fixtures_module(repo_root: Path):
    """The repository's hand-written fixtures, tests/java_fixtures.py."""
    tests_dir = str(repo_root / "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    import java_fixtures

    return java_fixtures


# ------------------------------------------------------------------ corpora


def synthetic_fixture(fx, index: int, label: str, rng: random.Random):
    """One generated instance whose ground truth holds by construction.

    `compute(k)` returns k * scale + offset. BC changes the offset, CE
    calls a method that does not exist, PRESERVING inlines a local.
    """
    tag = f"{index}x{rng.randrange(16 ** 4):04x}"
    calc = f"Calc{tag}"
    offset, scale, shift = rng.randint(1, 900), rng.randint(2, 9), rng.randint(1, 50)
    main = f"""public class Use{tag} {{
  public static void main(String[] args) {{
    {calc} calc = new {calc}();
    System.out.println(calc.compute({rng.randint(1, 99)}));
  }}
}}
"""

    def calc_source(base_expr: str, compute_body: str) -> str:
        return f"""public class {calc} {{
  private final int offset = {offset};

  public int base() {{
    return {base_expr};
  }}

  public int compute(int x) {{
{compute_body}
  }}
}}
"""

    extracted = f"    int scaled = x * {scale};\n    return scaled + base();"
    original = calc_source("offset", extracted)
    test = None
    if label == "BC":
        refactoring = "Move Method"
        resulting = calc_source(f"offset + {shift}", extracted)
        test = claim_test(calc, EXPOSING, attempt=0, rng=random.Random(index), scale=scale, offset=offset)
    elif label == "CE":
        refactoring = "Rename Method"
        resulting = calc_source("offset", f"    int scaled = x * {scale};\n    return scaled + baseValue();")
    else:
        refactoring = "Inline Variable"
        resulting = calc_source("offset", f"    return x * {scale} + base();")
    return fx.Fixture(
        id=f"syn-{index:04d}-{label.lower()}",
        tool=rng.choice(("Eclipse", "NetBeans", "IntelliJ")),
        refactoring=refactoring,
        label=label,
        original={f"{calc}.java": original, f"Use{tag}.java": main},
        resulting={f"{calc}.java": resulting, f"Use{tag}.java": main},
        test=test,
    ), {"calc": calc, "scale": scale, "offset": offset}


def claim_test(calc: str, kind: str, *, attempt: int, rng: random.Random,
               scale: int = 0, offset: int = 0) -> str:
    """A JUnit 4 test for a synthetic instance; distinct per attempt."""
    name = f"{calc}A{attempt}Test"
    if kind == MISSING_CLASS:
        body = f"assertEquals({rng.randint(1, 99)}, new Absent{calc}A{attempt}().value());"
    else:  # EXPOSING and VACUOUS: the same assertion, only the ground truth differs
        k = rng.randint(1, 999)
        body = f"assertEquals({k * scale + offset}, new {calc}().compute({k}));"
    return f"""import static org.junit.Assert.assertEquals;
import org.junit.Test;

public class {name} {{
  @Test
  public void computeKeepsItsValue() {{
    {body}
  }}
}}
"""


FIXTURE_MISSING_CLASS_TEST = """import static org.junit.Assert.assertEquals;
import org.junit.Test;

public class MissingHelperTest {
  @Test
  public void usesHelper() {
    assertEquals(1, new AbsentHelper().value());
  }
}
"""

TWO_CLASS_TEST = """import org.junit.Test;

public class FirstTest {
  @Test
  public void first() {
  }
}

public class SecondTest {
}
"""


def answer_text(kind: str, test: str | None = None) -> str:
    verdict = {YES: "YES", FENCED: "YES", CE: "NO - COMPILATION ERROR"}.get(kind, "NO - BEHAVIOR CHANGE")
    if kind == NOT_JSON:
        return "The refactoring looks fine to me, but I cannot say more."
    text = json.dumps({"verdict": verdict, "explanation": f"scripted {kind} answer",
                       "junit_test": TWO_CLASS_TEST if kind == TWO_CLASSES else test})
    return f"```json\n{text}\n```" if kind == FENCED else text


@dataclass
class Inputs:
    """A workload's corpus on disk and the answers scripted for it.

    `answers` maps (config name, instance id, attempt) to (kind, text).
    It is filled by `script` once the CLI has named the attempts it
    schedules, so configuration names are never rebuilt here.
    """
    workload: Workload
    seed: int
    corpus_root: Path
    labels: dict[str, str]
    tests: dict[str, str]           # claims-repeat: the test each fixture's claim carries
    shapes: dict[str, dict]         # claims-unique: what a test of each instance asserts
    answers: dict[tuple[str, str, int], tuple[str, str]] = field(default_factory=dict)

    def answer(self, config: str, instance: str, attempt: int) -> tuple[str, str]:
        """(kind, text) of the scripted answer; a pure function of the key."""
        rng = random.Random(f"{self.workload.name}:{self.seed}:{config}:{instance}:{attempt}")
        label = self.labels[instance]
        if self.workload.name == "python-path":
            kind = rng.choice(PYTHON_PATH_ANSWERS)
            return kind, answer_text(kind)
        kind = CLAIM_ANSWER[label]
        if self.workload.name == "claims-repeat":
            return kind, answer_text(kind, self.tests[instance])
        shape = self.shapes[instance]
        test = claim_test(shape["calc"], kind, attempt=attempt, rng=rng,
                          scale=shape["scale"], offset=shape["offset"])
        return kind, answer_text(kind, test)

    def script(self, keys) -> None:
        """Script an answer for every (config, instance, attempt) key."""
        self.answers = {key: self.answer(*key) for key in sorted(keys)}

    def expected(self) -> dict[tuple[str, str, int], dict]:
        return {
            key: expected_row(self.labels[key[1]], kind)
            for key, (kind, _) in self.answers.items()
        }


def build_inputs(workload: Workload, seed: int, repo_root: Path, corpus_root: Path) -> Inputs:
    """Write the workload's corpus; its answers are scripted later."""
    fx = fixtures_module(repo_root)
    rng = random.Random(f"{workload.name}:{seed}")
    tests: dict[str, str] = {}
    shapes: dict[str, dict] = {}
    if workload.name == "claims-repeat":
        fixtures = [f for label, n in CLAIM_MIX.items()
                    for f in [g for g in fx.FIXTURES if g.label == label][:n]]
        claim_tests = {"PRESERVING": fx.VACUOUS_TEST, "CE": FIXTURE_MISSING_CLASS_TEST}
        tests = {f.id: f.test or claim_tests[f.label] for f in fixtures}
    elif workload.name == "claims-unique":
        labels = [lab for lab, n in CLAIM_MIX.items() for _ in range(n)]
        rng.shuffle(labels)
        fixtures = []
        for index, label in enumerate(labels):
            fixture, shape = synthetic_fixture(fx, index, label, rng)
            fixtures.append(fixture)
            shapes[fixture.id] = shape
    else:
        labels = ["BC", "CE", "PRESERVING"] * (PYTHON_PATH_INSTANCES // 3)
        rng.shuffle(labels)
        fixtures = [synthetic_fixture(fx, i, lab, rng)[0] for i, lab in enumerate(labels)]
    fx.write_corpus(corpus_root, fixtures)
    return Inputs(workload, seed, corpus_root, {f.id: f.label for f in fixtures}, tests, shapes)


def tree_hash(root: Path) -> str:
    """Content hash of every file under a directory, by relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()
