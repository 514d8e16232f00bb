package plan

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// keyTable renders the key table as the markdown table README.md
// carries: key, the plan line it is written on, meaning, and its value
// in the default plan.
func keyTable(t *testing.T) string {
	def, err := Default().baseConfig(Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("| key | plan line | meaning | default |\n|---|---|---|---|\n")
	for _, k := range keys {
		line, val := k.line, k.get(&def)
		if line == "" {
			line = k.name
		}
		if val == "" {
			val = "—"
		}
		fmt.Fprintf(&b, "| `%s` | `%s` | %s | %s |\n", k.name, line, k.doc, val)
	}
	return b.String()
}

// TestReadmeKeyTable: README.md documents exactly the key table.
func TestReadmeKeyTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := keyTable(t); !strings.Contains(string(readme), want) {
		t.Errorf("README.md does not carry the current key table; paste this in:\n%s", want)
	}
}
