import java.io.BufferedOutputStream;
import java.io.BufferedReader;
import java.io.ByteArrayOutputStream;
import java.io.FileDescriptor;
import java.io.FileOutputStream;
import java.io.IOException;
import java.io.InputStreamReader;
import java.io.OutputStream;
import java.nio.charset.StandardCharsets;
import javax.tools.JavaCompiler;
import javax.tools.ToolProvider;

/**
 * A warm javac for reforacle's RealToolchain, started with the JDK's
 * source-file launcher: {@code java CompileWorker.java}.
 *
 * <p>The protocol uses standard output only. Once the system compiler is
 * loaded the worker prints {@code ready}. Each request is one line on
 * standard input: javac's arguments joined with NUL. Each reply is a line
 * {@code <exit code> <byte count>} followed by that many bytes, the
 * compiler's diagnostics in the platform charset, as one-shot javac prints
 * them. The worker exits at the end of its input. If the compiler throws
 * or runs out of resources the worker halts, so the caller sees the pipe
 * close and compiles with one-shot javac instead.
 */
public final class CompileWorker {
  // javac's exit codes from SYSERR (3) up mean a system error, resource
  // exhaustion (OutOfMemoryError) or a compiler crash
  private static final int FIRST_SYSTEM_ERROR = 3;

  private CompileWorker() {
  }

  public static void main(String[] args) throws IOException {
    OutputStream protocol = new BufferedOutputStream(new FileOutputStream(FileDescriptor.out));
    // anything else printed to System.out must not corrupt the protocol
    System.setOut(System.err);
    JavaCompiler javac = ToolProvider.getSystemJavaCompiler();
    if (javac == null) {
      System.exit(2);
    }
    protocol.write("ready\n".getBytes(StandardCharsets.US_ASCII));
    protocol.flush();
    BufferedReader requests =
        new BufferedReader(new InputStreamReader(System.in, StandardCharsets.UTF_8));
    String line;
    while ((line = requests.readLine()) != null) {
      ByteArrayOutputStream diagnostics = new ByteArrayOutputStream();
      int code;
      try {
        code = javac.run(null, diagnostics, diagnostics, line.split("\0", -1));
      } catch (Throwable t) {
        code = FIRST_SYSTEM_ERROR;
      }
      if (code >= FIRST_SYSTEM_ERROR) {
        Runtime.getRuntime().halt(code);
      }
      protocol.write((code + " " + diagnostics.size() + "\n").getBytes(StandardCharsets.US_ASCII));
      diagnostics.writeTo(protocol);
      protocol.flush();
    }
  }
}
