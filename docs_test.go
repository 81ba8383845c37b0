package rp

import (
	"os"
	"strings"
	"testing"
)

// TestDocsNameNoDeletedFeature keeps the user-facing docs from advertising
// what is gone: DESIGN.md §5k lists the deleted flags, commands, endpoints
// and API names in a deleted-names block, and no line of README.md, or of
// DESIGN.md outside §5k, may name one of them.
func TestDocsNameNoDeletedFeature(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	start := strings.Index(design, "\n## 5k.")
	if start < 0 {
		t.Fatal("DESIGN.md has no §5k")
	}
	end := strings.Index(design[start+1:], "\n## ")
	if end < 0 {
		t.Fatal("DESIGN.md §5k is the last section; expected one after it")
	}
	end += start + 1
	section := design[start:end]

	const open = "```deleted-names\n"
	i := strings.Index(section, open)
	if i < 0 {
		t.Fatal("DESIGN.md §5k has no deleted-names block")
	}
	block, _, ok := strings.Cut(section[i+len(open):], "```")
	if !ok {
		t.Fatal("DESIGN.md §5k's deleted-names block is not closed")
	}
	names := strings.Fields(block)
	if len(names) == 0 {
		t.Fatal("DESIGN.md §5k's deleted-names block is empty")
	}

	docs := map[string]string{
		"README.md": readDoc(t, "README.md"),
		// §5k is blanked line for line, so line numbers still match the file.
		"DESIGN.md": design[:start] + strings.Repeat("\n", strings.Count(section, "\n")) + design[end:],
	}
	for file, text := range docs {
		for n, line := range strings.Split(text, "\n") {
			for _, name := range names {
				if strings.Contains(line, name) {
					t.Errorf("%s:%d names the deleted %q: %s", file, n+1, name, strings.TrimSpace(line))
				}
			}
		}
	}
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
