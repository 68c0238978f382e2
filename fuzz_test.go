package llmbench

// Native fuzz targets for the parsers that take outside input: the
// serve-policy grammar (CLI and dashboard) and the trace file format.
// Seed corpora live under testdata/fuzz/<target>.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseServePolicy: every policy that parses prints to a string
// that parses back to the same policy.
func FuzzParseServePolicy(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseServePolicy(s)
		if err != nil {
			return
		}
		back, err := ParseServePolicy(p.String())
		if err != nil {
			t.Fatalf("%q → %#v → %q does not parse: %v", s, p, p.String(), err)
		}
		if back != p {
			t.Fatalf("%q → %#v → %q → %#v", s, p, p.String(), back)
		}
	})
}

// FuzzReadTrace: every input that parses writes back to a file that
// parses to the same trace and rewrites to the same bytes.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		reqs, meta, err := ReadTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteTrace(&first, reqs, meta); err != nil {
			t.Fatalf("parsed trace does not write: %v", err)
		}
		reqs2, meta2, err := ReadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written trace does not parse: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(reqs2, reqs) {
			t.Fatalf("requests changed across a write:\n%+v\n%+v", reqs, reqs2)
		}
		var second bytes.Buffer
		if err := WriteTrace(&second, reqs2, meta2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("rewrite not byte-identical:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}
