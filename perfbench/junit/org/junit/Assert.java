package org.junit;

/** The subset of JUnit 4's assertions that the benchmark's tests use. */
public final class Assert {
  private Assert() {
  }

  public static void assertEquals(long expected, long actual) {
    assertEquals(null, expected, actual);
  }

  public static void assertEquals(String message, long expected, long actual) {
    if (expected != actual) {
      fail(format(message, expected, actual));
    }
  }

  public static void assertEquals(Object expected, Object actual) {
    assertEquals(null, expected, actual);
  }

  public static void assertEquals(String message, Object expected, Object actual) {
    boolean same = expected == null ? actual == null : expected.equals(actual);
    if (!same) {
      fail(format(message, expected, actual));
    }
  }

  public static void assertTrue(boolean condition) {
    assertTrue(null, condition);
  }

  public static void assertTrue(String message, boolean condition) {
    if (!condition) {
      fail(message);
    }
  }

  public static void fail() {
    fail(null);
  }

  public static void fail(String message) {
    throw message == null ? new AssertionError() : new AssertionError(message);
  }

  private static String format(String message, Object expected, Object actual) {
    String prefix = message == null ? "" : message + " ";
    return prefix + "expected:<" + expected + "> but was:<" + actual + ">";
  }
}
