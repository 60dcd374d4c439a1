"""Java fixture programs and corpus builders shared across the test suite.

Each fixture is a complete instance: original sources, resulting sources,
label, and (for behavioral changes) a JUnit 4 test that passes on the
original program and fails on the resulting one. Programs are kept
multi-line so the line-based metamorphic operators have room to act.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# -------------------------------------------------------- Push Down Method:
# moving B.m to C changes what super.k() resolves to.

PUSH_DOWN_ORIGINAL = {
    "A.java": """public class A {
  public int k() { return 10; }
}
""",
    "B.java": """public class B extends A {
  public int k() { return 20; }
  public int m() { return super.k(); }
}
""",
    "C.java": """public class C extends B {
  public static void main(String[] args) {
    C c = new C();
    System.out.println(c.m());
  }
}
""",
}

PUSH_DOWN_RESULTING = {
    "A.java": """public class A {
  public int k() { return 10; }
}
""",
    "B.java": """public class B extends A {
  public int k() { return 20; }
}
""",
    "C.java": """public class C extends B {
  public int m() { return super.k(); }
  public static void main(String[] args) {
    C c = new C();
    System.out.println(c.m());
  }
}
""",
}

BEHAVIOR_TEST = """import static org.junit.Assert.assertEquals;
import org.junit.Test;

public class RefactoringBehaviorTest {
  @Test
  public void testMBehavior() {
    assertEquals(10, new C().m());
  }
}
"""

# --------------------------------------------------------- Inline Variable:
# produces (flag ? 1 : 2).byteValue(), which cannot compile: the conditional
# has primitive type int.

INLINE_VAR_ORIGINAL = {
    "A.java": """public class A {
  private void compIndex(boolean flag) {
    Integer iii = flag ? 1 : 2;
    iii.byteValue();
  }
}
""",
}

INLINE_VAR_RESULTING = {
    "A.java": """public class A {
  private void compIndex(boolean flag) {
    (flag ? 1 : 2).byteValue();
  }
}
""",
}

# ---------------------------------------------------------- Extract Method:
# the folded parameter evaluates x[0] eagerly and throws.

EXTRACT_ORIGINAL = {
    "A.java": """class A {
  public static void main(String[] a) {
    new A().m();
  }
  void m() {
    Object[] x = {};
    boolean c = false;
    if (c)
      System.out.println(x[0]);
    else
      System.out.println("ok");
  }
}
""",
}

EXTRACT_RESULTING = {
    "A.java": """class A {
  public static void main(String[] a) {
    new A().m();
  }
  void m() {
    Object[] x = {};
    boolean c = false;
    g(c, x[0]);
  }
  void g(boolean c, Object y) {
    if (c)
      System.out.println(y);
    else
      System.out.println("ok");
  }
}
""",
}

EXTRACT_TEST = """import org.junit.Test;

public class ExtractGuardTest {
  @Test
  public void mCompletesNormally() {
    new A().m();
  }
}
"""

VACUOUS_TEST = """import static org.junit.Assert.assertTrue;
import org.junit.Test;

public class VacuousTest {
  @Test
  public void alwaysPasses() {
    assertTrue(true);
  }
}
"""

REFLECTIVE_TEST = """import static org.junit.Assert.assertEquals;
import org.junit.Test;
import java.lang.reflect.Field;

public class ReflectiveFieldTest {
  @Test
  public void peeksPrivateField() throws Exception {
    Field f = Same.class.getDeclaredFields()[0];
    assertEquals("v", f.getName());
  }
}
"""

# Compiles only against the resulting program of pr-intro-const.
CONSTANT_ONLY_TEST = """import static org.junit.Assert.assertEquals;
import org.junit.Test;

public class ConstantOnlyTest {
  @Test
  public void readsConstant() {
    assertEquals(42, K.ANSWER);
  }
}
"""


@dataclass(frozen=True)
class Fixture:
    id: str
    tool: str
    refactoring: str
    label: str
    original: dict[str, str]
    resulting: dict[str, str]
    test: str | None = None


FIXTURES: list[Fixture] = [
    Fixture(
        id="bc-fig-pushdown",
        tool="Eclipse",
        refactoring="Push Down Method",
        label="BC",
        original=PUSH_DOWN_ORIGINAL,
        resulting=PUSH_DOWN_RESULTING,
        test=BEHAVIOR_TEST,
    ),
    Fixture(
        id="bc-extract-eager",
        tool="IntelliJ",
        refactoring="Extract Method",
        label="BC",
        original=EXTRACT_ORIGINAL,
        resulting=EXTRACT_RESULTING,
        test=EXTRACT_TEST,
    ),
    Fixture(
        id="bc-rename-dispatch",
        tool="Eclipse",
        refactoring="Rename Method",
        label="BC",
        original={
            "Prog.java": """class P {
  public int f() { return 1; }
  public int call() { return f(); }
}
class Q extends P {
  public int f() { return 2; }
}
""",
        },
        resulting={
            "Prog.java": """class P {
  public int f() { return 1; }
  public int call() { return f(); }
}
class Q extends P {
  public int g() { return 2; }
}
""",
        },
        test="""import static org.junit.Assert.assertEquals;
import org.junit.Test;

public class DispatchTest {
  @Test
  public void callDispatchesToOverride() {
    assertEquals(2, new Q().call());
  }
}
""",
    ),
    Fixture(
        id="bc-add-overload",
        tool="NetBeans",
        refactoring="Change Method Signature",
        label="BC",
        original={
            "M.java": """class M {
  public String pick(Object o) { return "obj"; }
  public String run() { return pick("s"); }
}
""",
        },
        resulting={
            "M.java": """class M {
  public String pick(Object o) { return "obj"; }
  public String pick(String s) { return "str"; }
  public String run() { return pick("s"); }
}
""",
        },
        test="""import static org.junit.Assert.assertEquals;
import org.junit.Test;

public class OverloadTest {
  @Test
  public void runPicksObjectOverload() {
    assertEquals("obj", new M().run());
  }
}
""",
    ),
    Fixture(
        id="bc-inline-side-effect",
        tool="Eclipse",
        refactoring="Inline Method",
        label="BC",
        original={
            "Acc.java": """class Acc {
  int n = 0;
  public int bump() {
    n = n + 1;
    return n;
  }
  public int twice() {
    bump();
    return bump();
  }
}
""",
        },
        resulting={
            "Acc.java": """class Acc {
  int n = 0;
  public int bump() {
    n = n + 1;
    return n;
  }
  public int twice() {
    return bump();
  }
}
""",
        },
        test="""import static org.junit.Assert.assertEquals;
import org.junit.Test;

public class SideEffectTest {
  @Test
  public void twiceBumpsTwice() {
    assertEquals(2, new Acc().twice());
  }
}
""",
    ),
    Fixture(
        id="bc-pushdown-super",
        tool="NetBeans",
        refactoring="Push Down Method",
        label="BC",
        original={
            "Prog.java": """class A2 {
  public int k() { return 5; }
}
class B2 extends A2 {
  public int k() { return 7; }
  public int m() { return super.k(); }
}
class C2 extends B2 {
}
""",
        },
        resulting={
            "Prog.java": """class A2 {
  public int k() { return 5; }
}
class B2 extends A2 {
  public int k() { return 7; }
}
class C2 extends B2 {
  public int m() { return super.k(); }
}
""",
        },
        test="""import static org.junit.Assert.assertEquals;
import org.junit.Test;

public class SuperCallTest {
  @Test
  public void mStillSeesGrandparent() {
    assertEquals(5, new C2().m());
  }
}
""",
    ),
    Fixture(
        id="ce-fig-inline-variable",
        tool="NetBeans",
        refactoring="Inline Variable",
        label="CE",
        original=INLINE_VAR_ORIGINAL,
        resulting=INLINE_VAR_RESULTING,
    ),
    Fixture(
        id="ce-removed-method",
        tool="Eclipse",
        refactoring="Inline Method",
        label="CE",
        original={
            "Calc.java": """class Calc {
  public int twice(int x) { return x * 2; }
  public int quad(int x) { return twice(twice(x)); }
}
""",
        },
        resulting={
            "Calc.java": """class Calc {
  public int quad(int x) { return twice(twice(x)); }
}
""",
        },
    ),
    Fixture(
        id="ce-rename-broken",
        tool="IntelliJ",
        refactoring="Rename Method",
        label="CE",
        original={
            "Prog.java": """class Greeter {
  public String hi() { return "hi"; }
}
class Caller {
  public String c() { return new Greeter().hi(); }
}
""",
        },
        resulting={
            "Prog.java": """class Greeter {
  public String greet() { return "hi"; }
}
class Caller {
  public String c() { return new Greeter().hi(); }
}
""",
        },
    ),
    Fixture(
        id="ce-pushdown-call",
        tool="Eclipse",
        refactoring="Push Down Method",
        label="CE",
        original={
            "Prog.java": """class Base {
  public void ping() { }
}
class Sub extends Base {
}
class Use {
  public void u() { new Base().ping(); }
}
""",
        },
        resulting={
            "Prog.java": """class Base {
}
class Sub extends Base {
  public void ping() { }
}
class Use {
  public void u() { new Base().ping(); }
}
""",
        },
    ),
    Fixture(
        id="ce-missing-import",
        tool="NetBeans",
        refactoring="Move Class",
        label="CE",
        original={
            "Names.java": """import java.util.ArrayList;

class Names {
  public int size() {
    ArrayList<String> xs = new ArrayList<String>();
    return xs.size();
  }
}
""",
        },
        resulting={
            "Names.java": """class Names {
  public int size() {
    ArrayList<String> xs = new ArrayList<String>();
    return xs.size();
  }
}
""",
        },
    ),
    Fixture(
        id="ce-interface-rename",
        tool="IntelliJ",
        refactoring="Rename Method",
        label="CE",
        original={
            "Prog.java": """interface Shape {
  int area();
}
class Square implements Shape {
  public int area() { return 4; }
}
""",
        },
        resulting={
            "Prog.java": """interface Shape {
  int size();
}
class Square implements Shape {
  public int area() { return 4; }
}
""",
        },
    ),
    Fixture(
        id="ce-generalize-raw",
        tool="Eclipse",
        refactoring="Generalize Type",
        label="CE",
        original={
            "Prog.java": """class Holder<T> {
  T item;
  public T get() { return item; }
}
class UseH {
  public String s() {
    Holder<String> h = new Holder<String>();
    return h.get();
  }
}
""",
        },
        resulting={
            "Prog.java": """class Holder {
  Object item;
  public Object get() { return item; }
}
class UseH {
  public String s() {
    Holder<String> h = new Holder<String>();
    return h.get();
  }
}
""",
        },
    ),
    Fixture(
        id="ce-field-type",
        tool="NetBeans",
        refactoring="Type Migration",
        label="CE",
        original={
            "Box.java": """class Box {
  Integer v = 1;
  public byte small() { return v.byteValue(); }
}
""",
        },
        resulting={
            "Box.java": """class Box {
  int v = 1;
  public byte small() { return v.byteValue(); }
}
""",
        },
    ),
    Fixture(
        id="pr-identity",
        tool="Other",
        refactoring="Rename Variable",
        label="PRESERVING",
        original={
            "Same.java": """class Same {
  int v = 0;
  public int v() { return 9; }
}
""",
        },
        resulting={
            "Same.java": """class Same {
  int v = 0;
  public int v() { return 9; }
}
""",
        },
    ),
    Fixture(
        id="pr-rename-local",
        tool="IntelliJ",
        refactoring="Rename Variable",
        label="PRESERVING",
        original={
            "R.java": """class R {
  public int s() {
    int a = 3;
    return a;
  }
}
""",
        },
        resulting={
            "R.java": """class R {
  public int s() {
    int b = 3;
    return b;
  }
}
""",
        },
    ),
    Fixture(
        id="pr-intro-const",
        tool="Eclipse",
        refactoring="Introduce Constant",
        label="PRESERVING",
        original={
            "K.java": """class K {
  public int f() { return 42; }
}
""",
        },
        resulting={
            "K.java": """class K {
  static final int ANSWER = 42;
  public int f() { return ANSWER; }
}
""",
        },
    ),
    Fixture(
        id="pr-format",
        tool="NetBeans",
        refactoring="Move Method",
        label="PRESERVING",
        original={
            "W.java": """class W {
  public int w() { return 3; }
}
""",
        },
        resulting={
            "W.java": """class W {
  public int w() {
    return 3;
  }
}
""",
        },
    ),
    Fixture(
        id="pr-enum-extract",
        tool="Other",
        refactoring="Extract Variable",
        label="PRESERVING",
        original={
            "Prog.java": """enum Color {
  RED, GREEN
}
class UseColor {
  public String first() {
    return Color.RED.name();
  }
}
""",
        },
        resulting={
            "Prog.java": """enum Color {
  RED, GREEN
}
class UseColor {
  public String first() {
    Color c = Color.RED;
    return c.name();
  }
}
""",
        },
    ),
    Fixture(
        id="pr-textblock",
        tool="IntelliJ",
        refactoring="Extract Method",
        label="PRESERVING",
        original={
            "T.java": """class T {
  public String banner() {
    return \"\"\"
      hello {\"\"\";
  }
}
""",
        },
        resulting={
            "T.java": """class T {
  public String banner() {
    return text();
  }
  String text() {
    return \"\"\"
      hello {\"\"\";
  }
}
""",
        },
    ),
]

BC_FIXTURES = [f for f in FIXTURES if f.label == "BC"]
CE_FIXTURES = [f for f in FIXTURES if f.label == "CE"]
PRESERVING_FIXTURES = [f for f in FIXTURES if f.label == "PRESERVING"]


def write_instance(root: Path, fixture: Fixture) -> Path:
    inst_dir = root / "instances" / fixture.id
    (inst_dir / "original").mkdir(parents=True, exist_ok=True)
    (inst_dir / "resulting").mkdir(parents=True, exist_ok=True)
    (inst_dir / "meta").write_text(
        f"id={fixture.id}\ntool={fixture.tool}\nrefactoring={fixture.refactoring}\n"
        f"label={fixture.label}\n",
        encoding="utf-8",
    )
    for name, content in fixture.original.items():
        path = inst_dir / "original" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    for name, content in fixture.resulting.items():
        path = inst_dir / "resulting" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    if fixture.test is not None:
        (inst_dir / "test").mkdir(exist_ok=True)
        (inst_dir / "test" / "Test.java").write_text(fixture.test, encoding="utf-8")
    return inst_dir


def write_corpus(root: Path, fixtures: list[Fixture] | None = None) -> Path:
    """Materialize fixtures in the dataset layout; returns the corpus root."""
    root.mkdir(parents=True, exist_ok=True)
    for fixture in fixtures if fixtures is not None else FIXTURES:
        write_instance(root, fixture)
    return root


# A stand-in `java` that starts no JVM: a compile worker launched with it
# never says it is ready, so every compile runs one-shot javac.
NO_JVM = "#!/bin/sh\nexit 0\n"


def stand_in_jdk(directory: Path, javac: str, java: str = NO_JVM) -> Path:
    """Executable scripts `javac` and `java` with these texts, side by side
    in `directory`, as in a JDK's bin directory; returns the javac's path."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in (("javac", javac), ("java", java)):
        (directory / name).write_text(text)
        (directory / name).chmod(0o755)
    return directory / "javac"


def synthetic_fixture(index: int, label: str) -> Fixture:
    """A tiny generated instance for volume tests (content varies by index)."""
    name = f"Gen{index}"
    original = {
        f"{name}.java": f"""class {name} {{
  public int value() {{
    return {index};
  }}
}}
"""
    }
    if label == "CE":
        resulting = {
            f"{name}.java": f"""class {name} {{
  public int value() {{
    return missing{index}();
  }}
}}
"""
        }
        return Fixture(
            id=f"syn-{index:04d}",
            tool="Other",
            refactoring="Inline Method",
            label="CE",
            original=original,
            resulting=resulting,
        )
    resulting = {
        f"{name}.java": f"""class {name} {{
  public int value() {{
    return {index + 1};
  }}
}}
"""
    }
    test = f"""import static org.junit.Assert.assertEquals;
import org.junit.Test;

public class Gen{index}Test {{
  @Test
  public void valueUnchanged() {{
    assertEquals({index}, new {name}().value());
  }}
}}
"""
    return Fixture(
        id=f"syn-{index:04d}",
        tool="Other",
        refactoring="Change Method Signature",
        label="BC",
        original=original,
        resulting=resulting,
        test=test,
    )


def synthetic_benchmark(n_ce: int = 185, n_bc: int = 41) -> list[Fixture]:
    """A benchmark-sized corpus: n_ce compilation errors then n_bc changes."""
    out = [synthetic_fixture(i, "CE") for i in range(n_ce)]
    out += [synthetic_fixture(n_ce + i, "BC") for i in range(n_bc)]
    return out
