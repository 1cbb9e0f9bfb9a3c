package pythagoras_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCLIPipeline exercises the real binaries end to end:
// datagen → pythagoras train → pythagoras predict → pythagoras serve.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("binary integration test")
	}
	bin := t.TempDir()
	build := func(name, pkg string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, pkg)
		cmd.Env = os.Environ()
		if raw, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, raw)
		}
		return out
	}
	datagen := build("datagen", "./cmd/datagen")
	pyth := build("pythagoras", "./cmd/pythagoras")

	work := t.TempDir()
	run := func(name string, args ...string) string {
		cmd := exec.Command(name, args...)
		cmd.Dir = work
		raw, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(name), args, err, raw)
		}
		return string(raw)
	}

	// 1. Generate a tiny corpus.
	out := run(datagen, "-corpus", "sports", "-tables", "24", "-out", work)
	if !strings.Contains(out, "SportsTables") {
		t.Fatalf("datagen output: %s", out)
	}
	corpusDir := filepath.Join(work, "sportstables")
	entries, err := os.ReadDir(corpusDir)
	if err != nil || len(entries) < 24 {
		t.Fatalf("corpus dir: %v, %d entries", err, len(entries))
	}

	// 2. Train briefly.
	model := filepath.Join(work, "model.bin")
	out = run(pyth, "train", "-data", corpusDir, "-model", model,
		"-epochs", "3", "-dim", "16", "-lm-layers", "1")
	if !strings.Contains(out, "model saved") {
		t.Fatalf("train output: %s", out)
	}

	// 3. Evaluate the saved model.
	out = run(pyth, "eval", "-data", corpusDir, "-model", model,
		"-dim", "16", "-lm-layers", "1")
	if !strings.Contains(out, "weighted F1") {
		t.Fatalf("eval output: %s", out)
	}

	// 4. Predict one table.
	out = run(pyth, "predict", "-data", corpusDir, "-model", model,
		"-table", "sports_00000", "-dim", "16", "-lm-layers", "1")
	if !strings.Contains(out, "sports_00000") || !strings.Contains(out, "→") {
		t.Fatalf("predict output: %s", out)
	}

	// 5. Serve with -log-format json, answer one predict, shut down on
	// SIGTERM: every stderr line is one JSON object, the access line
	// included, and it names the request the client got back.
	serveJSONLogs(t, pyth, work, model)
}

// serveJSONLogs runs `serve -log-format json` on a free loopback port,
// sends one /v1/predict, stops the server with SIGTERM and checks its
// stderr.
func serveJSONLogs(t *testing.T, pyth, work, model string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var stderr bytes.Buffer
	cmd := exec.Command(pyth, "serve", "-model", model, "-addr", addr,
		"-dim", "16", "-lm-layers", "1", "-log-format", "json")
	cmd.Dir = work
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // no-op once the process has exited
	base := "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never became ready (last error %v)\n%s", err, stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	body := `{"name":"NBA","columns":[{"header":"PPG","values":["25.7","29.4","18.1"]}]}`
	resp, err := http.Post(base+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-ID")

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve exit: %v\n%s", err, stderr.String())
	}

	var access map[string]any
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("stderr line is not JSON: %v (%q)", err, line)
		}
		if entry["level"] == nil || entry["msg"] == nil {
			t.Fatalf("stderr line lacks level or msg: %q", line)
		}
		if entry["msg"] == "request" && entry["path"] == "/v1/predict" {
			access = entry
		}
	}
	if access == nil {
		t.Fatalf("no access line for /v1/predict in stderr:\n%s", stderr.String())
	}
	if got := fmt.Sprint(access["request_id"]); reqID == "" || got != reqID {
		t.Fatalf("access line request_id %q, response X-Request-ID %q", got, reqID)
	}
}
