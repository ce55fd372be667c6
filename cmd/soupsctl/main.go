// Command soupsctl is a small client for soupsd.
//
// Usage:
//
//	soupsctl -server http://localhost:8080 get Order O-1
//	soupsctl -server http://localhost:8080 set Order O-1 status=OPEN total=99.5
//	soupsctl -server http://localhost:8080 delta Account A-1 balance=-25
//	soupsctl -server http://localhost:8080 history Order O-1
//	soupsctl -server http://localhost:8080 metrics
//	soupsctl -server http://localhost:8080 status
//	soupsctl -server http://localhost:8080 backup store.bak
//	soupsctl -server http://localhost:8080 restore store.bak
//	soupsctl -server http://localhost:8080 checkpoint
//	soupsctl -server http://localhost:8081 promote
//
// promote tells a standby soupsd to take over as primary (recovering a full
// kernel from its received log); point -server at the standby, not the dead
// primary. backup streams the node's full log as record frames (stdout when
// no file is given); restore replays such a stream into a freshly started
// node with the same unit count.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/storage"
)

var server = flag.String("server", "http://localhost:8080", "soupsd base URL")

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	switch args[0] {
	case "get":
		requireArgs(args, 3)
		get(fmt.Sprintf("%s/entities/%s/%s", *server, args[1], args[2]))
	case "history":
		requireArgs(args, 3)
		get(fmt.Sprintf("%s/history/%s/%s", *server, args[1], args[2]))
	case "warnings":
		get(*server + "/warnings")
	case "metrics":
		get(*server + "/metrics")
	case "status":
		status()
	case "set", "delta":
		requireArgs(args, 4)
		post(args[0], args[1], args[2], args[3:])
	case "backup":
		backup(args[1:])
	case "restore":
		restore(args[1:])
	case "checkpoint":
		postEmpty(*server + "/checkpoint")
	case "promote":
		postEmpty(*server + "/promote")
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: soupsctl [-server URL] command ...
  get|history Type ID
  set|delta Type ID field=value ...
  warnings | metrics | checkpoint
  status           degraded/overload/breaker posture of the node
  promote          tell a standby to take over as primary
  backup  [file]   stream the node's log to file (default stdout)
  restore [file]   replay a backup stream into the node (default stdin)`)
	os.Exit(2)
}

// backup streams GET /backup to a file or stdout, checking every frame's
// CRC and the trailer's frame count on the way through. The server answers
// 200 before the export can fail, so a mid-stream error only shows as a
// short body, which the trailer catches. Validating here means a bad backup
// fails the backup command, not the eventual restore.
func backup(args []string) {
	out := os.Stdout
	if len(args) > 0 {
		f, err := os.Create(args[0])
		if err != nil {
			log.Fatalf("backup: %v", err)
		}
		defer f.Close()
		out = f
	}
	url := *server + "/backup"
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		body, _ := io.ReadAll(resp.Body)
		log.Fatalf("backup: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	// A failed write to out surfaces as a read error of the tee.
	sr := storage.NewStreamReader(io.TeeReader(resp.Body, out))
	var last []byte
	var read, frames uint64 // frames read; the count the trailer claims before it
	for ; ; read++ {
		p, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatalf("backup: %v; do not keep this file", err)
		}
		last = append(last[:0], p...)
	}
	if _, err := storage.ParseControl(last, storage.TagTrailer, &frames); err != nil || frames != read-1 {
		log.Fatalf("backup: stream is truncated (missing or mismatched trailer after %d frames); do not keep this file", read)
	}
	fmt.Fprintf(os.Stderr, "backup: %d frames, trailer ok\n", frames)
}

// restore POSTs a backup stream from a file or stdin to /restore.
func restore(args []string) {
	in := io.Reader(os.Stdin)
	if len(args) > 0 {
		f, err := os.Open(args[0])
		if err != nil {
			log.Fatalf("restore: %v", err)
		}
		defer f.Close()
		in = f
	}
	url := *server + "/restore"
	resp, err := http.Post(url, "application/octet-stream", in)
	if err != nil {
		log.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	printReply(resp)
}

// status renders GET /status as a short operator summary: role, write
// availability, any degraded units, shed counters and breaker states. Fetch
// /status directly for the raw JSON.
func status() {
	url := *server + "/status"
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		fmt.Printf("%s\n", bytes.TrimSpace(body))
		os.Exit(1)
	}
	var st struct {
		Role   string `json:"role"`
		Health *struct {
			WritesOK      bool `json:"writes_ok"`
			DegradedUnits int  `json:"degraded_units"`
			Units         []struct {
				Unit      string `json:"unit"`
				Depth     int    `json:"queue_depth"`
				Degraded  bool   `json:"degraded"`
				Reason    string `json:"reason"`
				Permanent bool   `json:"permanent"`
				Error     string `json:"error"`
			} `json:"units"`
			QueueDepth      int               `json:"queue_depth"`
			QueueShed       uint64            `json:"queue_shed"`
			DeadlineDropped uint64            `json:"deadline_dropped"`
			WritesRefused   uint64            `json:"writes_refused"`
			Breakers        map[string]string `json:"breakers"`
		} `json:"health"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		log.Fatalf("status: malformed response: %v", err)
	}
	fmt.Printf("role: %s\n", st.Role)
	if st.Health == nil {
		return
	}
	h := st.Health
	writes := "ok"
	if !h.WritesOK {
		writes = fmt.Sprintf("DEGRADED (%d unit(s) read-only)", h.DegradedUnits)
	}
	fmt.Printf("writes: %s\n", writes)
	fmt.Printf("queue: depth=%d shed=%d deadline_dropped=%d writes_refused=%d\n",
		h.QueueDepth, h.QueueShed, h.DeadlineDropped, h.WritesRefused)
	for _, u := range h.Units {
		if !u.Degraded {
			continue
		}
		perm := "retryable"
		if u.Permanent {
			perm = "permanent"
		}
		fmt.Printf("  %s: degraded reason=%s (%s) err=%s\n", u.Unit, u.Reason, perm, u.Error)
	}
	if len(h.Breakers) > 0 {
		names := make([]string, 0, len(h.Breakers))
		for name := range h.Breakers {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("breakers:\n")
		for _, name := range names {
			fmt.Printf("  %s: %s\n", name, h.Breakers[name])
		}
	}
}

// postEmpty POSTs with no body and prints the response.
func postEmpty(url string) {
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		log.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	printReply(resp)
}

// printReply prints a reply body and exits non-zero on an error status. The
// daemon answers in compact JSON; a terminal wants it indented, so that
// happens here.
func printReply(resp *http.Response) {
	body, _ := io.ReadAll(resp.Body)
	body = bytes.TrimSpace(body)
	var pretty bytes.Buffer
	if resp.Header.Get("Content-Type") == "application/json" && json.Indent(&pretty, body, "", "  ") == nil {
		body = pretty.Bytes()
	}
	fmt.Printf("%s\n", body)
	if resp.StatusCode >= 300 {
		os.Exit(1)
	}
}

func requireArgs(args []string, n int) {
	if len(args) < n {
		usage()
	}
}

func get(url string) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	printReply(resp)
}

func post(kind, typeName, id string, assignments []string) {
	payload := map[string]interface{}{}
	values := map[string]interface{}{}
	for _, a := range assignments {
		parts := strings.SplitN(a, "=", 2)
		if len(parts) != 2 {
			log.Fatalf("malformed assignment %q (want field=value)", a)
		}
		values[parts[0]] = parseValue(parts[1])
	}
	if kind == "set" {
		payload["set"] = values
	} else {
		deltas := map[string]float64{}
		for k, v := range values {
			f, ok := v.(float64)
			if !ok {
				log.Fatalf("delta value for %s must be numeric", k)
			}
			deltas[k] = f
		}
		payload["delta"] = deltas
	}
	body, _ := json.Marshal(payload)
	url := fmt.Sprintf("%s/entities/%s/%s", *server, typeName, id)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	printReply(resp)
}

// parseValue interprets booleans and numbers; everything else stays a string.
func parseValue(s string) interface{} {
	switch s {
	case "true":
		return true
	case "false":
		return false
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}
