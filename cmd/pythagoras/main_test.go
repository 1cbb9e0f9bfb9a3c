package main

import (
	"encoding/json"
	"io"
	"log"
	"log/slog"
	"os"
	"testing"
)

// TestJSONLogFormatRoutesPrintf: -log-format json turns the CLI's
// log.Printf lines — the Config.Logf epoch hook among them — into JSON
// entries on stderr whose msg is the formatted text.
func TestJSONLogFormatRoutesPrintf(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stderr, def, out, flags := os.Stderr, slog.Default(), log.Writer(), log.Flags()
	t.Cleanup(func() {
		os.Stderr = stderr
		slog.SetDefault(def)
		log.SetOutput(out)
		log.SetFlags(flags)
	})
	os.Stderr = w

	setLogFormat("json")
	logf := log.Printf
	logf("epoch %d done", 3)
	w.Close()

	line, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	var entry struct {
		Level string `json:"level"`
		Msg   string `json:"msg"`
	}
	if err := json.Unmarshal(line, &entry); err != nil {
		t.Fatalf("printf line is not JSON: %v (%q)", err, line)
	}
	if entry.Level != "INFO" || entry.Msg != "epoch 3 done" {
		t.Fatalf("printf line = %s", line)
	}
}
