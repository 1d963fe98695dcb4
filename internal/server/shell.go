package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The HTTP shell the server and the cluster coordinator share: how a body
// is read, how a reply is written, how a listener lives and dies.

// maxBodyBytes bounds request bodies; NFC sources are small programs.
const maxBodyBytes = 1 << 20

// DecodeBody parses a JSON request body, refusing unknown fields, anything
// after the one value and anything over maxBodyBytes. The error text is
// the 400 reply.
func DecodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var tooLarge *http.MaxBytesError
	err := dec.Decode(into)
	if err == nil {
		// A second value, or garbage, after the first is a malformed
		// request, not one to answer as if it ended where it parsed.
		if _, more := dec.Token(); more != io.EOF {
			err = errors.New("unexpected data after the JSON value")
			if errors.As(more, &tooLarge) {
				err = more
			}
		}
	}
	switch {
	case errors.As(err, &tooLarge):
		return fmt.Errorf("request body too large (limit %d bytes)", tooLarge.Limit)
	case err != nil:
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

// WriteJSON writes v as one compact JSON line (humans pipe it through
// `python3 -m json.tool`) and returns status for the caller's accounting.
func WriteJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the client may already be gone
	return status
}

// WriteError writes the {"error": msg} reply every failure uses.
func WriteError(w http.ResponseWriter, status int, msg string) int {
	return WriteJSON(w, status, map[string]string{"error": msg})
}

// ResultLengthsHeader rides on every analyze reply: the byte length of
// each result object, space-separated, in reply order. With it a reader
// can index a batch reply — result i starts len(`{"results":[`) + i + the
// lengths before it into the body — without parsing it; SplitResults is
// that reader.
const ResultLengthsHeader = "X-Clara-Result-Lengths"

// The analyze reply's envelope: everything in the body that is not a result.
const resultsOpen, resultsSep, resultsEnd = `{"results":[`, ",", "]}\n"

// WriteResults writes the analyze reply {"results":[…]} around result
// objects that are already JSON — the server's headers spliced around
// stored insights, the coordinator's worker bytes — without handing them
// to an encoder, which would re-scan every byte to validate and compact
// what was valid and compact when it was stored. It announces the body's
// length and, in ResultLengthsHeader, where each result lies in it.
func WriteResults(w http.ResponseWriter, results [][]byte) int {
	n := len(resultsOpen) + len(resultsEnd) + len(results)*len(resultsSep)
	for _, r := range results {
		n += len(r)
	}
	buf := make([]byte, 0, n)
	lengths := make([]byte, 0, 6*len(results))
	buf = append(buf, resultsOpen...)
	for i, r := range results {
		if i > 0 {
			buf = append(buf, resultsSep...)
			lengths = append(lengths, ' ')
		}
		buf = append(buf, r...)
		lengths = strconv.AppendInt(lengths, int64(len(r)), 10)
	}
	buf = append(buf, resultsEnd...)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	h.Set(ResultLengthsHeader, string(lengths))
	w.WriteHeader(http.StatusOK)
	w.Write(buf) //nolint:errcheck // the client may already be gone
	return http.StatusOK
}

// validResult is the one scan SplitResults makes of a result's bytes:
// validJSON, which accepts what json.Valid accepts at about 2.6 times its
// speed. A variable so that a test can count the scans.
var validResult = validJSON

// SplitResults cuts an analyze reply written by WriteResults back into its
// result objects, given the reply's ResultLengthsHeader. The results are
// sub-slices of body, not copies. Nothing is taken on the header's word:
// every byte outside the announced ranges must be the envelope WriteResults
// writes, the ranges must cover the rest of the body exactly, and each one
// must be a single well-formed JSON object — checked in one pass over it —
// so bytes that pass here can be forwarded without an encoder's re-scan.
func SplitResults(body []byte, lengths string) ([][]byte, error) {
	if !bytes.HasPrefix(body, []byte(resultsOpen)) {
		return nil, errors.New("body does not open with " + resultsOpen)
	}
	pos := len(resultsOpen)
	// Sized from the header, but never past what the body could hold: a
	// result is at least "{}" and a separator.
	out := make([][]byte, 0, min(strings.Count(lengths, " ")+1, len(body)/3))
	for more := lengths != ""; more; {
		var field string
		field, lengths, more = strings.Cut(lengths, " ")
		size, err := strconv.ParseUint(field, 10, 31)
		if err != nil {
			return nil, fmt.Errorf("result length %q is not a number", field)
		}
		if len(out) > 0 {
			if pos == len(body) || body[pos] != resultsSep[0] {
				return nil, fmt.Errorf("no separator before result %d", len(out))
			}
			pos++
		}
		if int(size) > len(body)-pos {
			return nil, fmt.Errorf("result %d runs past the body: %d bytes announced, %d left", len(out), size, len(body)-pos)
		}
		end := pos + int(size)
		r := body[pos:end:end]
		if size < 2 || r[0] != '{' || r[size-1] != '}' || !validResult(r) {
			return nil, fmt.Errorf("result %d is not a JSON object", len(out))
		}
		out = append(out, r)
		pos = end
	}
	if string(body[pos:]) != resultsEnd {
		return nil, fmt.Errorf("%d results end at byte %d of %d, not at the closing %q", len(out), pos, len(body), resultsEnd)
	}
	return out, nil
}

// ListenAndDrain serves h on addr until ctx is canceled, then runs drain
// (nil for a handler with no in-flight state of its own) and closes the
// listener, both inside one 30s grace period.
func ListenAndDrain(ctx context.Context, addr string, h http.Handler, drain func(context.Context) error) error {
	srv := &http.Server{Addr: addr, Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if drain != nil {
		if err := drain(grace); err != nil {
			return err
		}
	}
	return srv.Shutdown(grace)
}
