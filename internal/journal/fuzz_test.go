package journal

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sameFloat reports whether a and b are the same float64 bit pattern, or
// both NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// signed returns body with its CRC appended — a line whose checksum is
// valid whatever its field spelling.
func signed(body string) string {
	return fmt.Sprintf("%s,%08x", body, crc32.ChecksumIEEE([]byte(body)))
}

// FuzzParseRecord pins the record codec: every record recordLine writes
// parses back to its exact index and time, and any other line is either
// rejected or is itself exactly what recordLine writes for the values it
// parses to.
func FuzzParseRecord(f *testing.F) {
	f.Add(7, 7.5, strings.TrimSuffix(recordLine(7, 7.5), "\n"))
	f.Add(0, math.Copysign(0, -1), "r,0,0,00000000")
	f.Add(1<<40, math.Inf(1), "")
	f.Add(3, 1e-300, signed("r,+3,1e-300")) // non-canonical index
	f.Add(3, 2.5, signed("r,3,2.50"))       // non-canonical time
	f.Add(3, 2.5, fmt.Sprintf("r,3,2.5,%08X", crc32.ChecksumIEEE([]byte("r,3,2.5"))))
	f.Fuzz(func(t *testing.T, idx int, sec float64, line string) {
		if idx >= 0 {
			enc := recordLine(idx, sec)
			gi, gs, ok := parseRecord(strings.TrimSuffix(enc, "\n"))
			if !ok || gi != idx || !sameFloat(gs, sec) {
				t.Fatalf("recordLine(%d, %v) = %q parses to (%d, %v, %v)", idx, sec, enc, gi, gs, ok)
			}
		}
		if gi, gs, ok := parseRecord(line); ok {
			if enc := recordLine(gi, gs); enc != line+"\n" {
				t.Fatalf("accepted %q as (%d, %v), which encodes as %q", line, gi, gs, enc)
			}
		}
	})
}

// FuzzOpenTornTail appends arbitrary bytes to a valid journal — the
// shape a crash mid-append leaves. Open must succeed, keep every row of
// the valid prefix with its exact time (plus any whole, valid records
// that lead the tail), truncate the file to exactly those lines, and
// leave it appendable.
func FuzzOpenTornTail(f *testing.F) {
	whole := recordLine(9, 9.5)
	for _, tail := range []string{
		"",
		whole[:len(whole)/2],
		whole[:len(whole)-1], // torn exactly at the newline
		strings.TrimSuffix(whole, "\n") + "\r\n",
		whole + "r,10,",
		recordLine(1, 4.75) + "\x00\xff",
		"\n\n",
	} {
		f.Add([]byte(tail))
	}
	meta := MetaHash("TS", 1, 20, []float64{30})
	prefix := rows(0, 1.5, 1, 2.25, 2, 1e-3, 5, 123.456)
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "j")
		j, err := Open(path, meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(prefix); err != nil {
			t.Fatal(err)
		}
		j.Close()
		clean, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(clean, tail...), 0o644); err != nil {
			t.Fatal(err)
		}

		// What Open should keep: the prefix, then each whole
		// newline-terminated valid record at the head of the tail.
		want := map[int]float64{}
		for _, r := range prefix {
			want[r.Index] = r.TimeSec
		}
		keptLen := len(clean)
		rest := string(tail)
		for {
			nl := strings.IndexByte(rest, '\n')
			if nl < 0 {
				break
			}
			idx, sec, ok := parseRecord(rest[:nl])
			if !ok {
				break
			}
			want[idx] = sec
			keptLen += nl + 1
			rest = rest[nl+1:]
		}

		j, err = Open(path, meta)
		if err != nil {
			t.Fatalf("open with tail %q: %v", tail, err)
		}
		check := func(j *Journal) {
			t.Helper()
			if j.Rows() != len(want) {
				t.Fatalf("tail %q: %d rows, want %d", tail, j.Rows(), len(want))
			}
			for idx, sec := range want {
				if got, ok := j.Known(idx); !ok || !sameFloat(got, sec) {
					t.Fatalf("tail %q: row %d = (%v, %v), want %v", tail, idx, got, ok, sec)
				}
			}
		}
		check(j)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(keptLen) {
			t.Fatalf("tail %q: file is %d bytes after open, want %d", tail, fi.Size(), keptLen)
		}
		if err := j.Append(rows(19, 0.25)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		want[19] = 0.25
		j, err = Open(path, meta)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		check(j)
	})
}
