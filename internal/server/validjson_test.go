package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// nested is n containers opened around a 1 and closed again: arrays, or
// objects with one member each.
func nested(n int, object bool) string {
	open, end := "[", "]"
	if object {
		open, end = `{"a":`, "}"
	}
	return strings.Repeat(open, n) + "1" + strings.Repeat(end, n)
}

// validJSONCases is the language json.Valid accepts, edge by edge; want is
// its verdict.
var validJSONCases = func() []struct {
	in   string
	want bool
} {
	cases := []struct {
		in   string
		want bool
	}{
		// numbers
		{"0", true}, {"-0", true}, {"123", true}, {"-0.5e-7", true}, {"1E+2", true}, {"1e5", true},
		{"01", false}, {"-01", false}, {"-", false}, {"1.", false}, {".5", false}, {"+1", false},
		{"1e", false}, {"1e+", false}, {"1.e5", false}, {"0x1", false}, {"1-", false}, {"--1", false},
		// strings and escapes
		{`""`, true}, {`"\" \\ \/ \b \f \n \r \t"`, true}, {`"\u12aF"`, true},
		{`"\u12G4"`, false}, {`"\u12"`, false}, {`"\x"`, false}, {`"\'"`, false},
		{`"abc`, false}, {`"abc\`, false}, {`"abc\"`, false},
		{"\"\x7f\"", true}, {"\"\xff\xfe\"", true}, {"\"\xc3\"", true}, {"\"\u2028\"", true},
		// whitespace
		{" \t\r\n1\n", true}, {"\f1", false}, {"1\v", false}, {"[1,\f2]", false}, {"\u00a01", false},
		// literals
		{"true", true}, {"false", true}, {"null", true},
		{"tru", false}, {"nul", false}, {"falsey", false}, {"nulll", false}, {"True", false},
		// arrays and objects
		{"[]", true}, {"{}", true}, {"[ ]", true}, {"{ }", true}, {`{"a":[1,{"b":null}]}`, true},
		{` { "a" : 1 , "b" : [ 1 , 2 ] } `, true}, {`{"a":1,"a":2}`, true},
		{"[1,]", false}, {`{"a":1,}`, false}, {`{"a" 1}`, false}, {"[,1]", false}, {"{,}", false},
		{"{1:2}", false}, {`{"a":1 "b":2}`, false}, {"[1 2]", false}, {"[}", false}, {"{]", false},
		{"[1}", false}, {`{"a":1]`, false}, {"[", false}, {`{"a"`, false}, {`{"a":`, false},
		// what follows the value
		{"", false}, {" \n", false}, {"{} x", false}, {"{}{}", false}, {"1 2", false}, {"[]]", false},
		// nesting, at encoding/json's limit and one past it
		{nested(maxNestingDepth, false), true}, {nested(maxNestingDepth+1, false), false},
		{nested(maxNestingDepth, true), true}, {nested(maxNestingDepth+1, true), false},
	}
	for c := 0; c < 0x20; c++ {
		cases = append(cases, struct {
			in   string
			want bool
		}{fmt.Sprintf("\"a%cb\"", c), false})
	}
	return cases
}()

// TestValidJSONMatchesStdlib: validJSON gives json.Valid's verdict on every
// edge of the language.
func TestValidJSONMatchesStdlib(t *testing.T) {
	for _, c := range validJSONCases {
		if got := json.Valid([]byte(c.in)); got != c.want {
			t.Errorf("json.Valid(%.40q) = %v; the table says %v", c.in, got, c.want)
		}
		if got := validJSON([]byte(c.in)); got != c.want {
			t.Errorf("validJSON(%.40q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// lightReply is a real worker's reply to the cluster-light-batch request
// (the 18 LightElements against server.New over the quick tool) and the
// results it cuts into.
func lightReply(tb testing.TB) (body []byte, results [][]byte) {
	tb.Helper()
	s, err := New(Config{Tool: quickTool(tb), Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	blob, err := json.Marshal(AnalyzeRequest{NFs: LightElements})
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(blob)))
	if rec.Code != http.StatusOK || rec.Header().Get(FailedJobsHeader) != "" {
		tb.Fatalf("status %d, %s %q:\n%.300s", rec.Code, FailedJobsHeader, rec.Header().Get(FailedJobsHeader), rec.Body.String())
	}
	body = rec.Body.Bytes()
	if results, err = SplitResults(body, rec.Header().Get(ResultLengthsHeader)); err != nil {
		tb.Fatal(err)
	}
	return body, results
}

// TestValidJSONNoAllocs: the checker allocates nothing on a real reply.
func TestValidJSONNoAllocs(t *testing.T) {
	_, results := lightReply(t)
	allocs := testing.AllocsPerRun(20, func() {
		for _, r := range results {
			if !validJSON(r) {
				t.Fatalf("a worker's result is refused: %.120s", r)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("checking the %d results allocates %.0f times, want 0", len(results), allocs)
	}
}

// FuzzValidJSON: validJSON and json.Valid agree on every input.
func FuzzValidJSON(f *testing.F) {
	for _, r := range awkwardResults {
		f.Add(r)
	}
	body, results := lightReply(f)
	f.Add(body)
	f.Add(results[0])
	for _, c := range validJSONCases {
		f.Add([]byte(c.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := validJSON(data), json.Valid(data); got != want {
			t.Fatalf("validJSON = %v, json.Valid = %v on %q", got, want, data)
		}
	})
}

var validSink bool

// BenchmarkValidResult prices the coordinator's one scan per forwarded
// result over a real worker reply to the cluster-light-batch request, for
// the checker SplitResults uses and for json.Valid; MB/s is over the 18
// results' bytes.
func BenchmarkValidResult(b *testing.B) {
	_, results := lightReply(b)
	size := 0
	for _, r := range results {
		size += len(r)
	}
	for _, c := range []struct {
		name  string
		valid func([]byte) bool
	}{{"validJSON", validJSON}, {"json.Valid", json.Valid}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range results {
					validSink = c.valid(r)
				}
			}
		})
	}
}
