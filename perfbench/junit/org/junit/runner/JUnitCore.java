package org.junit.runner;

import java.lang.reflect.InvocationTargetException;
import java.lang.reflect.Method;
import java.util.ArrayList;
import java.util.Arrays;
import java.util.Comparator;
import java.util.List;
import org.junit.Test;

/**
 * Runs the {@code @Test} methods of the named classes and prints JUnit 4's
 * summary: {@code OK (n tests)} with exit code 0, or {@code FAILURES!!!}
 * with exit code 1.
 */
public final class JUnitCore {
  private JUnitCore() {
  }

  public static void main(String[] args) {
    System.out.println("JUnit version 4 (benchmark subset)");
    int run = 0;
    List<String> failures = new ArrayList<>();
    for (String name : args) {
      Class<?> testClass;
      try {
        testClass = Class.forName(name);
      } catch (ClassNotFoundException e) {
        run++;
        failures.add("initializationError(" + name + "): could not find class");
        continue;
      }
      Method[] methods = testClass.getMethods();
      Arrays.sort(methods, Comparator.comparing(Method::getName));
      for (Method method : methods) {
        if (!method.isAnnotationPresent(Test.class)) {
          continue;
        }
        run++;
        try {
          method.invoke(testClass.getDeclaredConstructor().newInstance());
        } catch (InvocationTargetException e) {
          failures.add(method.getName() + "(" + name + "): " + e.getCause());
        } catch (ReflectiveOperationException | RuntimeException e) {
          failures.add(method.getName() + "(" + name + "): " + e);
        }
      }
    }
    for (int i = 0; i < failures.size(); i++) {
      System.out.println((i + 1) + ") " + failures.get(i));
    }
    if (failures.isEmpty()) {
      System.out.println("OK (" + run + (run == 1 ? " test)" : " tests)"));
      System.exit(0);
    }
    System.out.println("FAILURES!!!");
    System.out.println("Tests run: " + run + ",  Failures: " + failures.size());
    System.exit(1);
  }
}
