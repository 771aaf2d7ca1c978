package demo.grammar;

import java.util.List;
import static java.lang.Math.max;

@SuppressWarnings("unchecked")
public final class Grammar<T extends Comparable<T>> extends Base implements Runnable {
    private static final int LIMIT = 10, SPARE;
    protected List<Map<String, int[]>> table = new ArrayList<>();
    int[][] grid = new int[3][];

    public Grammar(int seed) { this.count = seed; }

    @Override
    public synchronized <R> R apply(final String first, int... rest) throws IOException, Error {
        int total = 0, step = 1;
        long wide[];
        final double ratio = (double) total / step;
        char c = (char) (step + 'a');
        for (int i = 0, j = rest.length; i < j; i++, j--) {
            if (rest[i] == j) break outer;
            else if (rest[i] != 0) continue outer;
            else continue;
        }
        for (String part : first.split(",")) { total += part.length(); }
        for (;;) { break; }
        while (total > LIMIT) total -= step;
        do { step <<= 1; } while (step < 64);
        try (Reader r = open(first); Writer w = sink()) {
            r.read(buffer, 0, buffer.length);
        } catch (IOException | RuntimeException e) {
            throw new IllegalStateException("failed: " + e.getMessage(), e);
        } catch (Exception ignored) {
        } finally {
            close();
        }
        boolean flag = a || b && c | d ^ e & f == g != h < i > j <= k >= l;
        int bits = x << 1 >> 2 >>> 3 + y - z * w / v % u;
        Object o = first instanceof CharSequence ? first : null;
        boolean same = o instanceof String[] && !flag;
        int neg = -total + ~step - +bits, post = total++ + --step;
        int[][] made = new int[rest.length][2];
        Runnable task = new Runnable() { public void run() { } };
        int[] lit = new int[] { 1, 2, 3 };
        super.apply(this.table.get(0)[1], Grammar.empty());
        total = step = bits;
        grid[0][1] %= 3;
        ;
        { total++; }
        switch (total) { default: total = 0; }
        return result((int) total);
    }

    abstract void pending();

    static class Inner { void noop() { return; } }
}

interface Shape { double area(); default int sides() { return 0; } }

enum Color {
    RED("r"), GREEN("g") { @Override String code() { return "G"; } }, BLUE;
    private final String code;
    Color(String code) { this.code = code; }
    Color() { this(null); }
    String code() { return code; }
}
