package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// written is WriteResults' reply to rs: the body and the lengths it announced.
func written(t testing.TB, rs [][]byte) (body []byte, lengths string) {
	t.Helper()
	rec := httptest.NewRecorder()
	WriteResults(rec, rs)
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q on a %d-byte body", got, rec.Body.Len())
	}
	return rec.Body.Bytes(), rec.Header().Get(ResultLengthsHeader)
}

// awkwardResults are result objects whose strings hold everything the cut
// could trip on were it looking inside them: quotes, HTML the encoder
// escapes, a raw U+2028, and the envelope's own separator and closing.
var awkwardResults = [][]byte{
	[]byte(`{"name":"a\"b","error":"x<y & z>"}`),
	[]byte("{\"name\":\"line\u2028sep\",\"workload\":\"mix\"}"),
	[]byte(`{"name":"]}\n","insights":{"nf":"},{","notes":["]}","\n"]}}`),
	[]byte(`{}`),
}

// TestSplitResultsRoundTrip: what WriteResults writes, SplitResults cuts
// back into the same results — as sub-slices of the body, each capped so an
// append cannot reach its neighbour — for 0, 1 and N of them.
func TestSplitResultsRoundTrip(t *testing.T) {
	for n := 0; n <= len(awkwardResults); n++ {
		rs := awkwardResults[:n]
		body, lengths := written(t, rs)
		got, err := SplitResults(body, lengths)
		if err != nil {
			t.Fatalf("%d results: %v\nbody    %q\nlengths %q", n, err, body, lengths)
		}
		if len(got) != n {
			t.Fatalf("%d results split into %d", n, len(got))
		}
		for i := range got {
			if !bytes.Equal(got[i], rs[i]) {
				t.Errorf("%d results: result %d = %q, want %q", n, i, got[i], rs[i])
			}
			if cap(got[i]) != len(got[i]) {
				t.Errorf("%d results: result %d has %d spare bytes of its neighbour", n, i, cap(got[i])-len(got[i]))
			}
		}
		var raw rawReply
		if err := json.Unmarshal(body, &raw); err != nil || len(raw.Results) != n {
			t.Errorf("%d results: the decoder disagrees: %v, %d results", n, err, len(raw.Results))
		}
	}
}

// TestSplitResultsRejects: each way a frame can be wrong is an error that
// says which, never a short or shifted split.
func TestSplitResultsRejects(t *testing.T) {
	body, lengths := written(t, awkwardResults[:3])
	first := len(awkwardResults[0])
	for name, c := range map[string]struct {
		body    string
		lengths string
		want    string
	}{
		"no header":             {string(body), "", "0 results end at"},
		"one length missing":    {string(body), lengths[:strings.LastIndex(lengths, " ")], "2 results end at"},
		"one length extra":      {string(body), lengths + " 2", "no separator before result 3"},
		"first length short":    {string(body), strconv.Itoa(first-1) + lengths[strings.Index(lengths, " "):], "result 0 is not a JSON object"},
		"first length long":     {string(body), strconv.Itoa(first+1) + lengths[strings.Index(lengths, " "):], "result 0 is not a JSON object"},
		"length past the body":  {string(body), strconv.Itoa(len(body)), "result 0 runs past the body"},
		"comma in a length":     {string(body), strings.Replace(lengths, " ", ",", 1), "is not a number"},
		"negative length":       {string(body), "-" + lengths, "is not a number"},
		"doubled space":         {string(body), strings.Replace(lengths, " ", "  ", 1), `result length "" is not a number`},
		"trailing space":        {string(body), lengths + " ", `result length "" is not a number`},
		"truncated body":        {string(body[:len(body)-1]), lengths, "not at the closing"},
		"trailing bytes":        {string(body) + " ", lengths, "not at the closing"},
		"other envelope":        {`{"Results":[{}]}` + "\n", "2", "does not open with"},
		"garbage in a result":   {`{"results":[{"a":tru}]}` + "\n", "9", "result 0 is not a JSON object"},
		"two values in a range": {`{"results":[{},{}]}` + "\n", "5", "result 0 is not a JSON object"},
		"bookends only":         {`{"results":[{"a":}]}` + "\n", "6", "result 0 is not a JSON object"},
		"an array for a result": {`{"results":[[]]}` + "\n", "2", "result 0 is not a JSON object"},
		"one byte for a result": {`{"results":[{]}` + "\n", "1", "result 0 is not a JSON object"},
	} {
		got, err := SplitResults([]byte(c.body), c.lengths)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %d results, error %v; want an error containing %q", name, len(got), err, c.want)
		}
	}
}

// FuzzSplitResults: whatever the body and the header, SplitResults either
// refuses or returns exactly the announced ranges of the body, each valid
// JSON — and then the body as a whole is a reply the decoder reads the
// same results out of.
func FuzzSplitResults(f *testing.F) {
	body, lengths := written(f, awkwardResults)
	one, oneLen := written(f, awkwardResults[:1])
	none, noneLen := written(f, nil)
	f.Add(body, lengths)
	f.Add(one, oneLen)
	f.Add(none, noneLen)
	f.Add(body[:len(body)/2], lengths)
	f.Add(body[:len(body)-1], lengths)
	f.Add(body, "")
	f.Add(body, lengths+" 2")
	f.Add(body, lengths[:strings.LastIndex(lengths, " ")])
	f.Add(body, strings.Replace(lengths, " ", ",", 1))
	f.Add(body, strconv.Itoa(len(awkwardResults[0])+1)+lengths[strings.Index(lengths, " "):])
	f.Add(body, strconv.Itoa(len(awkwardResults[0])-1)+lengths[strings.Index(lengths, " "):])
	f.Add([]byte(`{"results":[{"a":tru}]}`+"\n"), "9")
	f.Add([]byte(`{"results":[{},{}]}`+"\n"), "5")
	f.Add(one, "99999999999999999999")
	// One result twice, which makes its insights known (a value is kept
	// the second time it passes); then a third copy, as it was or with one
	// byte of its head or of its insights changed, so the check meets bytes
	// it knows or bytes like them.
	r := awkwardResults[2]
	vs := bytes.Index(r, []byte(`"insights":`)) + len(`"insights":`)
	for _, off := range []int{-1, 1, vs - 2, vs, vs + 3, len(r) - 2} {
		third := bytes.Clone(r)
		if off >= 0 {
			third[off] = 'x'
		}
		thrice, thriceLen := written(f, [][]byte{r, r, third})
		f.Add(thrice, thriceLen)
	}
	f.Fuzz(func(t *testing.T, body []byte, lengths string) {
		got, err := SplitResults(body, lengths)
		if err != nil {
			if got != nil {
				t.Fatalf("an error (%v) came with %d results", err, len(got))
			}
			return
		}
		var fields []string
		if lengths != "" {
			fields = strings.Split(lengths, " ")
		}
		if len(got) != len(fields) {
			t.Fatalf("%d results for %d announced lengths %q", len(got), len(fields), lengths)
		}
		pos := len(resultsOpen)
		for i, r := range got {
			n, err := strconv.Atoi(fields[i])
			if err != nil {
				t.Fatalf("accepted the length %q", fields[i])
			}
			if i > 0 {
				pos++
			}
			if len(r) != n || &r[0] != &body[pos] {
				t.Fatalf("result %d is not body[%d:%d]", i, pos, pos+n)
			}
			if !json.Valid(r) {
				t.Fatalf("result %d is not valid JSON: %q", i, r)
			}
			pos += n
		}
		var raw rawReply
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatalf("accepted a body the decoder refuses: %v\n%q", err, body)
		}
		if len(raw.Results) != len(got) {
			t.Fatalf("split %d results, the decoder reads %d", len(got), len(raw.Results))
		}
		for i := range got {
			if !bytes.Equal(raw.Results[i], got[i]) {
				t.Fatalf("result %d: split %q, decoded %q", i, got[i], raw.Results[i])
			}
		}
	})
}

// mutantBytes replace one byte of a result in TestSplitResultsWarmVerdicts:
// the string and escape delimiters, a raw control byte, plain letters and
// digits, number and member punctuation, a closer, and a UTF-8 lead byte.
var mutantBytes = []byte{'"', '\\', 0x1f, 'x', '1', '.', ',', '}', 0xc3}

// TestSplitResultsWarmVerdicts: a result the coordinator has already seen,
// with one byte changed, gets the same verdict from SplitResults however
// often it arrives, and that verdict is json.Valid's. Over a real worker's
// 18 results it changes every byte of each result's head (its members
// before the insights), the first and last 64 bytes of its insights and a
// stride of the rest, and the closing brace — each mutant cut twice, after
// the unchanged results were cut twice (in lightReply and here), which
// makes their insights known, so a check that remembers what it has seen
// is held to the bytes it saw and not to something like them.
func TestSplitResultsWarmVerdicts(t *testing.T) {
	_, results := lightReply(t)
	one := func(r []byte) ([]byte, string) {
		body := append(append([]byte(resultsOpen), r...), resultsEnd...)
		return body, strconv.Itoa(len(r))
	}
	const stride = 61
	mutants := 0
	for n, r := range results {
		if _, err := SplitResults(one(r)); err != nil {
			t.Fatalf("result %d alone: %v", n, err)
		}
		at := bytes.Index(r, []byte(`,"insights":`))
		if at < 0 {
			t.Fatalf("result %d has no insights: %.120s", n, r)
		}
		vs, end := at+len(`,"insights":`), len(r)-1
		for off := 0; off < len(r); off++ {
			if off >= vs+64 && off < end-64 && (off-vs)%stride != 0 {
				continue
			}
			for _, c := range mutantBytes {
				if r[off] == c {
					continue
				}
				m := bytes.Clone(r)
				m[off] = c
				body, lengths := one(m)
				_, first := SplitResults(body, lengths)
				_, second := SplitResults(body, lengths)
				want := json.Valid(m)
				if (first == nil) != want || (second == nil) != want {
					t.Fatalf("result %d, byte %d (%q → %q): accepted %v then %v, json.Valid %v\n%.200q",
						n, off, r[off], c, first == nil, second == nil, want, m[max(0, off-60):])
				}
				mutants++
			}
		}
	}
	t.Logf("%d one-byte mutants of %d results", mutants, len(results))
}

// TestKnownValuesBounded: distinct insights values fed to the check well
// past the known set's limit never leave it holding more than
// maxKnownBytes, its count of the bytes it holds stays true, a value is
// kept on its second sighting and not its first, and a value over
// maxKnownValue is checked but not kept.
func TestKnownValuesBounded(t *testing.T) {
	forgetKnownValues()
	t.Cleanup(forgetKnownValues)
	fed := 0
	for n := 0; fed < 3*maxKnownBytes; n++ {
		// Sizes from a few bytes to just past maxKnownValue.
		v := []byte(`{"n":` + strconv.Itoa(n) + `,"pad":"` + strings.Repeat("x", n*7919%(maxKnownValue+64)) + `"}`)
		r := []byte(`{"name":"x","insights":` + string(v) + `}`)
		for sighting, want := range []bool{false, len(v) <= maxKnownValue} {
			if !validResult(r) {
				t.Fatalf("value %d refused", n)
			}
			if got := knownValue(v); got != want {
				t.Fatalf("value %d, %d bytes, sighting %d: known %v, want %v", n, len(v), sighting+1, got, want)
			}
		}
		fed += len(v)
		known.RLock()
		held := 0
		for k := range known.values {
			held += len(k)
		}
		size := known.size
		known.RUnlock()
		if held != size || held > maxKnownBytes {
			t.Fatalf("after %d bytes fed: the set holds %d bytes and counts %d, limit %d", fed, held, size, maxKnownBytes)
		}
	}
}

// TestFreshValuesNotKept: results whose insights never repeat are each
// checked with no allocation and leave the known set empty.
func TestFreshValuesNotKept(t *testing.T) {
	forgetKnownValues()
	t.Cleanup(forgetKnownValues)
	const runs = 200
	results := make([][]byte, runs+1) // AllocsPerRun makes one warm-up call
	for n := range results {
		results[n] = []byte(`{"name":"x","insights":{"n":` + strconv.Itoa(n) + `,"pad":"` + strings.Repeat("z", 2000) + `"}}`)
	}
	n := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if !validResult(results[n]) {
			t.Fatalf("result %d refused", n)
		}
		n++
	})
	if allocs != 0 {
		t.Errorf("checking a never-seen result allocates %.1f times, want 0", allocs)
	}
	known.RLock()
	defer known.RUnlock()
	if len(known.values) != 0 {
		t.Errorf("%d values seen once are kept, want none", len(known.values))
	}
}

// TestKnownValuesConcurrent: results checked from several goroutines at
// once — the same values on every goroutine, and values of their own, each
// sent twice so that it is kept, that keep pushing the known set past
// maxKnownBytes, so it is emptied under the readers — all pass, and the set
// ends inside its limit. Run it with -race.
func TestKnownValuesConcurrent(t *testing.T) {
	forgetKnownValues()
	t.Cleanup(forgetKnownValues)
	result := func(g, n, size int) []byte {
		return []byte(`{"name":"x","insights":{"g":` + strconv.Itoa(g) + `,"n":` + strconv.Itoa(n) + `,"pad":"` + strings.Repeat("y", size) + `"}}`)
	}
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n*maxKnownValue/2 < maxKnownBytes; n++ {
				own := result(g, n, maxKnownValue/2)
				for _, r := range [][]byte{result(0, n%8, 100), own, own} {
					if !validResult(r) {
						t.Errorf("goroutine %d: refused %.60q", g, r)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	known.RLock()
	defer known.RUnlock()
	if known.size > maxKnownBytes {
		t.Errorf("the set holds %d bytes, limit %d", known.size, maxKnownBytes)
	}
}
