"""Stand-in JDK images for tests that need a javac or java that behaves
in a scripted way: `<home>/bin/javac`, `<home>/bin/java` and
`<home>/release`, laid out as in a real JDK."""

from __future__ import annotations

from pathlib import Path

from java_fixtures import NO_JVM

JAVA_VERSION = "0.0.1-stand-in"
RELEASE = f'IMPLEMENTOR="tests"\nJAVA_VERSION="{JAVA_VERSION}"\nOS_NAME="Linux"\n'


def stand_in_jdk(home: Path, javac: str, java: str | None = NO_JVM,
                 release: str | None = RELEASE) -> Path:
    """A JDK image under `home` whose `bin/javac` and `bin/java` are
    executable scripts with these texts (no java when None), with a
    `release` file of that text (none when None); returns the javac's
    path."""
    bin_dir = home / "bin"
    bin_dir.mkdir(parents=True, exist_ok=True)
    for name, text in (("javac", javac), ("java", java)):
        if text is not None:
            (bin_dir / name).write_text(text)
            (bin_dir / name).chmod(0o755)
    if release is not None:
        (home / "release").write_text(release)
    return bin_dir / "javac"
