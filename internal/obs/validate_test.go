package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// getStatus performs a GET and returns the status code and body without
// failing on non-200 — the probe the validation tests need. The timeout
// turns a request that never completes into a failure.
func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestQueryParamValidation drives every malformed-parameter path of the
// /metrics query parameter: a valid filter keeps matching series and drops
// the rest, and malformed input is rejected with HTTP 400 and a JSON body
// naming the parameter — never a silent clamp.
func TestQueryParamValidation(t *testing.T) {
	o := New(0)
	worker, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := worker.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	addr := worker.Addr()
	longMatch := strings.Repeat("x", maxMatchLen+1)

	t.Run("worker/match filters", func(t *testing.T) {
		code, body := getStatus(t, "http://"+addr+"/metrics?match=build_info")
		if code != http.StatusOK || !strings.Contains(body, "build_info{") {
			t.Fatalf("match=build_info lost the matching series (code %d):\n%.300s", code, body)
		}
		code, body = getStatus(t, "http://"+addr+"/metrics?match=no-such-metric")
		if code != http.StatusOK || strings.Contains(body, "build_info{") {
			t.Fatalf("match=no-such-metric still renders unmatched series (code %d):\n%.300s", code, body)
		}
	})
	cases := []struct {
		name      string
		path      string
		wantParam string // "" = expect 200
	}{
		{"metrics ok", "/metrics?match=obs", ""},
		{"metrics long match", "/metrics?match=" + longMatch, "match"},
		{"metrics control match", "/metrics?match=%0a", "match"},
	}
	for _, tc := range cases {
		t.Run("worker/"+tc.name, func(t *testing.T) {
			code, body := getStatus(t, "http://"+addr+tc.path)
			if tc.wantParam == "" {
				if code != http.StatusOK {
					t.Fatalf("GET %s = %d, want 200: %s", tc.path, code, body)
				}
				return
			}
			if code != http.StatusBadRequest {
				t.Fatalf("GET %s = %d, want 400", tc.path, code)
			}
			var e struct {
				Error string `json:"error"`
				Param string `json:"param"`
			}
			if err := json.Unmarshal([]byte(body), &e); err != nil {
				t.Fatalf("400 body is not JSON: %q (%v)", body, err)
			}
			if e.Param != tc.wantParam || e.Error == "" {
				t.Errorf("400 body = %+v, want param %q and a message", e, tc.wantParam)
			}
		})
	}
}

// TestBuildInfoOnMetrics: every observer's /metrics carries the build_info
// gauge identifying the binary and runtime that produced it.
func TestBuildInfoOnMetrics(t *testing.T) {
	o := New(0)
	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	body, _ := get(t, "http://"+srv.Addr()+"/metrics")
	if !strings.Contains(body, "build_info{") {
		t.Fatalf("/metrics lacks build_info:\n%.400s", body)
	}
	for _, label := range []string{"go_version=", "gomaxprocs=", "version="} {
		if !strings.Contains(body, label) {
			t.Errorf("build_info missing %s label", label)
		}
	}
	// The gauge must render value 1 so sum(build_info) counts processes.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "build_info{") && !strings.HasSuffix(line, " 1") {
			t.Errorf("build_info line %q, want value 1", line)
		}
	}
}
