package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
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
