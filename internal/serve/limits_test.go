package serve

import (
	"bytes"
	"compress/gzip"
	"net/http"
	"strings"
	"testing"
)

// post sends body to url, gzip-compressed when zip is set, and returns the
// response status.
func post(t *testing.T, url string, body []byte, zip bool) int {
	t.Helper()
	if zip {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(body)
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		body = buf.Bytes()
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if zip {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRequestBodyCaps posts syntactically valid JSON one byte past each
// endpoint's cap, plain and gzip-compressed. The compressed body is tiny, so
// the 413 proves the cap applies to the decoded size.
func TestRequestBodyCaps(t *testing.T) {
	srv, _ := distServer(t, CoordinatorConfig{})
	cases := []struct {
		path           string
		limit          int
		prefix, suffix string
		fill           string
	}{
		{"/v1/simulate", maxSimulateBodyBytes, `{"configs": [`, `]}`, " "},
		{"/v1/jobs/lease", maxLeaseBodyBytes, `{"worker": "`, `"}`, "w"},
	}
	for _, c := range cases {
		body := []byte(c.prefix + strings.Repeat(c.fill, c.limit+1) + c.suffix)
		for _, zip := range []bool{false, true} {
			if got := post(t, srv.URL+c.path, body, zip); got != http.StatusRequestEntityTooLarge {
				t.Errorf("%s (gzip=%v): %d-byte body answered %d, want 413", c.path, zip, len(body), got)
			}
		}
	}
	// A normal lease poll still goes through.
	if got := post(t, srv.URL+"/v1/jobs/lease", []byte(`{"worker": "w1", "max": 1}`), true); got != http.StatusOK {
		t.Errorf("small lease poll answered %d, want 200", got)
	}
}

// TestNewServerTimeouts pins the read-side timeouts pifssim -serve runs with
// and the absence of a write timeout, which would cut off long /v1/run
// sweeps and lease long-polls.
func TestNewServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	srv := NewServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("server not wired: addr %q handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("timeouts unset: header %v read %v idle %v", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout < srv.ReadHeaderTimeout {
		t.Errorf("ReadTimeout %v shorter than ReadHeaderTimeout %v", srv.ReadTimeout, srv.ReadHeaderTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none", srv.WriteTimeout)
	}
}
