package dashboard

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"llmbench"
)

func TestIndex(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	buf := make([]byte, 1<<16)
	n, _ := res.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "LLM-Inference-Bench") {
		t.Error("index page missing title")
	}
	if res404, _ := http.Get(srv.URL + "/nope"); res404.StatusCode != http.StatusNotFound {
		t.Error("unknown path must 404")
	}
}

func TestListEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var exps []expInfo
	if err := json.NewDecoder(res.Body).Decode(&exps); err != nil {
		t.Fatal(err)
	}
	if len(exps) != 51 {
		t.Errorf("dashboard lists %d experiments, want 51", len(exps))
	}
}

func TestRunEndpointFigure(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/run?id=fig2b")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out runResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Figure == nil || len(out.Figure.Series) == 0 {
		t.Fatal("figure missing")
	}
	if out.Figure.XLabel == "" || out.Markdown == "" {
		t.Error("figure metadata incomplete")
	}
	// Cached second call must match.
	res2, err := http.Get(srv.URL + "/api/run?id=fig2b")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var out2 runResponse
	if err := json.NewDecoder(res2.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	if out2.Markdown != out.Markdown {
		t.Error("cache must return identical result")
	}
}

func TestSweepEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/sweep?model=Mistral-7B&device=H100&framework=TRT-LLM&len=512")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var out runResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Figure == nil || len(out.Figure.Series) != 3 {
		t.Fatalf("sweep figure incomplete: %+v", out.Figure)
	}
	// Errors: unknown model, bad tp, TRT-LLM on AMD, bad length.
	for _, q := range []string{
		"?model=GPT-5", "?tp=zero", "?device=MI250&framework=TRT-LLM", "?len=-3",
	} {
		r2, err := http.Get(srv.URL + "/api/sweep" + q)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, r2.StatusCode)
		}
	}
}

func TestServeEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/serve?model=Mistral-7B&device=A100&framework=vLLM&replicas=3&rate=15&requests=60")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var out runResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"latency p50 / p95 / p99", "queue delay p50 / p95 / p99", "| replica |"} {
		if !strings.Contains(out.Markdown, want) {
			t.Errorf("serving table missing %q:\n%s", want, out.Markdown)
		}
	}

	// Autoscaled variant reports the scaling trajectory.
	res2, err := http.Get(srv.URL + "/api/serve?model=Mistral-7B&device=A100&framework=vLLM&replicas=4&rate=15&requests=60&autoscale=1")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("autoscale status %d", res2.StatusCode)
	}
	var out2 runResponse
	if err := json.NewDecoder(res2.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2.Markdown, "peak") {
		t.Errorf("autoscale output missing trajectory:\n%s", out2.Markdown)
	}

	// Errors: unknown model, replica/rate bounds.
	for _, q := range []string{
		"?model=GPT-5", "?replicas=100000", "?rate=-2", "?requests=zero",
	} {
		r2, err := http.Get(srv.URL + "/api/serve" + q)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, r2.StatusCode)
		}
	}
}

func TestServeSweepEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/servesweep?model=Mistral-7B&device=A100&framework=vLLM&rates=5,15&replicas=1,2&requests=60&slo=6")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var out runResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// One P99 series per replica count, two rate points each.
	if out.Figure == nil || len(out.Figure.Series) != 2 {
		t.Fatalf("capacity figure incomplete: %+v", out.Figure)
	}
	for _, s := range out.Figure.Series {
		if len(s.Points) != 2 {
			t.Errorf("series %q has %d points, want 2", s.Label, len(s.Points))
		}
	}
	for _, want := range []string{"| Replicas |", "Knee per replica count"} {
		if !strings.Contains(out.Markdown, want) {
			t.Errorf("capacity table missing %q:\n%s", want, out.Markdown)
		}
	}

	// Errors: unknown model, empty/oversized/out-of-range axes, bad
	// policy, bad trace-shape axes.
	for _, q := range []string{
		"?model=GPT-5", "?rates=0", "?rates=1,2,3,4,5,6,7,8,9",
		"?replicas=0", "?replicas=100000", "?policy=bogus", "?requests=999999",
		"?bursts=0.5", "?bursts=x", "?mixes=512", "?mixes=8:128", "?mixes=512:128:1",
		"?rates=1,2,3,4,5,6,7,8&replicas=1,2,3,4,5,6,7,8&bursts=1,4", // 128 points > 64 cap
		"?slo=6s", "?slo=-1",
	} {
		r2, err := http.Get(srv.URL + "/api/servesweep" + q)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, r2.StatusCode)
		}
	}
}

// TestServeSweepEndpointDisagg: topology policy forms reach the
// endpoint through the full policy grammar — a disagg pool split runs
// the sweep; malformed splits and illegal compositions are 400s.
func TestServeSweepEndpointDisagg(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/servesweep?model=Mistral-7B&device=A100&framework=vLLM" +
		"&rates=5,15&replicas=4&policy=ll/disagg/1:3&requests=40&slo=60")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var out runResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Markdown, "disagg/1:3") {
		t.Errorf("disagg sweep table does not name the topology:\n%s", out.Markdown)
	}
	for _, q := range []string{
		"?rates=5&replicas=4&policy=disagg/0:3",
		"?rates=5&replicas=4&policy=disagg/1",
		"?rates=5&replicas=4&policy=static/disagg/1:3",
		"?rates=5&replicas=4&policy=disagg/2:6:autoscale",
	} {
		r2, err := http.Get(srv.URL + "/api/servesweep" + q)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, r2.StatusCode)
		}
	}
}

// TestServeSweepEndpointTraceReplay: the upload-less replay path — a
// recorded trace file on the server's filesystem drives the sweep,
// with and without streaming aggregation; conflicting or unreadable
// trace parameters are 400s, as is a non-finite SLO.
func TestServeSweepEndpointTraceReplay(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()

	reqs, err := llmbench.ServePointTrace(llmbench.ServeSweepConfig{
		System:   llmbench.System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		MaxBatch: 8, Seed: 11, Requests: 40, InputMean: 256, OutputMean: 64,
	}, llmbench.ServeGrid{Rates: []float64{8}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "day.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := llmbench.WriteTrace(f, reqs, llmbench.TraceMeta{Source: "dashboard test"}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, extra := range []string{"", "&stream=1", "&rates=5,15"} {
		res, err := http.Get(srv.URL + "/api/servesweep?model=Mistral-7B&device=A100&framework=vLLM" +
			"&replicas=1,2&slo=6&trace=" + url.QueryEscape(path) + extra)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d: %s", extra, res.StatusCode, body)
		}
		var out runResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Figure == nil || len(out.Figure.Series) != 2 {
			t.Fatalf("%q: want one series per replica count, got %+v", extra, out.Figure)
		}
		if !strings.Contains(out.Markdown, "Knee") {
			t.Errorf("%q: replay output missing knee table:\n%s", extra, out.Markdown)
		}
	}

	for _, q := range []string{
		"&trace=" + url.QueryEscape(path) + "&bursts=1,4",
		"&trace=" + url.QueryEscape(path) + "&mixes=256:64",
		"&trace=" + url.QueryEscape(filepath.Join(t.TempDir(), "missing.trace")),
		"&slo=%2BInf", "&slo=NaN",
	} {
		r2, err := http.Get(srv.URL + "/api/servesweep?model=Mistral-7B&device=A100&framework=vLLM&rates=5" + q)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, r2.StatusCode)
		}
	}
}

// TestServeSweepEndpointShaped: the trace-shape axes (bursts, mixes)
// and the cluster-capable static policy reach the endpoint — one
// series per replica count × trace shape, shape columns in the table,
// and zero skipped points even at multi-replica static.
func TestServeSweepEndpointShaped(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/servesweep?model=Mistral-7B&device=A100&framework=vLLM" +
		"&rates=5,15&replicas=2&bursts=1,4&mixes=256:64&policy=static&requests=40&slo=6")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var out runResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Figure == nil || len(out.Figure.Series) != 2 {
		t.Fatalf("want one series per burst factor, got %+v", out.Figure)
	}
	if len(out.Figure.Notes) != 0 {
		t.Errorf("static @ 2 replicas must not skip points: %v", out.Figure.Notes)
	}
	for _, want := range []string{"| Burst |", "×4", "256:64", "static/rr", "Knee"} {
		if !strings.Contains(out.Markdown, want) {
			t.Errorf("shaped capacity table missing %q:\n%s", want, out.Markdown)
		}
	}
}

func TestRunEndpointTableAndErrors(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/run?id=tab1")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out runResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Figure != nil || out.Text == "" {
		t.Error("tables must return text, not a figure")
	}
	if res2, _ := http.Get(srv.URL + "/api/run?id=fig99"); res2.StatusCode != http.StatusNotFound {
		t.Error("unknown experiment must 404")
	}
}

// writeTestTrace records a small valid trace at path and returns its
// size in bytes.
func writeTestTrace(t *testing.T, path string) int64 {
	t.Helper()
	reqs, err := llmbench.ServePointTrace(llmbench.ServeSweepConfig{
		System:   llmbench.System{Model: "Mistral-7B", Device: "A100", Framework: "vLLM"},
		MaxBatch: 8, Seed: 11, Requests: 40, InputMean: 256, OutputMean: 64,
	}, llmbench.ServeGrid{Rates: []float64{8}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := llmbench.WriteTrace(f, reqs, llmbench.TraceMeta{Source: "dashboard test"}); err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestReadTraceFileRejectsNonRegular: a directory (like a FIFO or a
// device) is refused before it is opened or read.
func TestReadTraceFileRejectsNonRegular(t *testing.T) {
	if _, err := readTraceFile(t.TempDir(), false, maxTraceBytes); err == nil || !strings.Contains(err.Error(), "not a regular file") {
		t.Errorf("directory: got %v, want a not-a-regular-file error", err)
	}
}

// TestReadTraceFileByteCap: the cap counts bytes actually read, so a
// file one byte over it fails and one exactly at it parses.
func TestReadTraceFileByteCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "day.trace")
	size := writeTestTrace(t, path)
	if _, err := readTraceFile(path, false, size); err != nil {
		t.Errorf("cap == size: %v", err)
	}
	if _, err := readTraceFile(path, false, size-1); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("cap == size-1: got %v, want an exceeds-cap error", err)
	}
}

// TestServeSweepTraceErrorsQuoteNothing: a file that is not a trace —
// or a trace with a corrupt row — is a 400 whose body quotes none of
// the file's content.
func TestServeSweepTraceErrorsQuoteNothing(t *testing.T) {
	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	const secret = "root:x:0:0:secret-marker"
	dir := t.TempDir()
	passwd := filepath.Join(dir, "passwd")
	if err := os.WriteFile(passwd, []byte(secret+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "corrupt.trace")
	writeTestTrace(t, corrupt)
	f, err := os.OpenFile(corrupt, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(secret + ",1,2\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, path := range []string{passwd, corrupt} {
		res, err := http.Get(srv.URL + "/api/servesweep?model=Mistral-7B&device=A100&framework=vLLM&trace=" + url.QueryEscape(path))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", filepath.Base(path), res.StatusCode)
		}
		if strings.Contains(string(body), "secret-marker") {
			t.Errorf("%s: error body leaks file content: %s", filepath.Base(path), body)
		}
	}
}

// TestServeSweepPolicyOptionsParse: every option the page's policy
// select offers parses with the one policy grammar the endpoint uses,
// and a static/least-loaded sweep runs.
func TestServeSweepPolicyOptionsParse(t *testing.T) {
	sel := indexHTML[strings.Index(indexHTML, `<select id="ss-policy">`):]
	sel = sel[:strings.Index(sel, "</select>")]
	opts := regexp.MustCompile(`<option value="([^"]*)"`).FindAllStringSubmatch(sel, -1)
	if len(opts) == 0 {
		t.Fatal("ss-policy select has no options")
	}
	for _, o := range opts {
		if _, err := llmbench.ParseServePolicy(o[1]); err != nil {
			t.Errorf("ss-policy option %q does not parse: %v", o[1], err)
		}
	}

	srv := httptest.NewServer(Handler(2))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/api/servesweep?policy=static/ll&rates=5&replicas=2&requests=20")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Errorf("policy=static/ll: status %d, want 200", res.StatusCode)
	}
}
