// Package recipe parses Singularity definition files (build recipes): the
// Bootstrap/From header and the %help, %labels, %environment, %files,
// %post, %runscript, and %test sections. Recipes are the version-controlled
// artifact of the paper — the GitHub half of its "build recipes on GitHub,
// built containers on Singularity-Hub" distribution model.
package recipe

import (
	"fmt"
	"sort"
	"strings"
)

// FilePair is one "%files" line: copy src from the build context to dst in
// the container.
type FilePair struct {
	Src, Dst string
}

// Recipe is a parsed definition file.
type Recipe struct {
	Bootstrap string // e.g. "library", "docker"
	From      string // base image reference, e.g. "centos:7.4"
	Help      string
	Labels    map[string]string
	// Environment lines are executed (as shell) at the start of every run.
	Environment string
	Files       []FilePair
	// Posts lists each %post section separately, in file order. A recipe
	// may repeat %post to mark build-stage boundaries: the staged build
	// executor caches and replays each section as its own image layer.
	Posts     []string
	Runscript string
	Test      string
	// Source preserves the original text for provenance.
	Source string
}

// sectionNames in canonical output order.
var sectionNames = []string{"%help", "%labels", "%environment", "%files", "%post", "%runscript", "%test"}

// Parse parses a definition file.
func Parse(src string) (*Recipe, error) {
	r := &Recipe{Labels: map[string]string{}, Source: src}
	lines := strings.Split(src, "\n")
	section := ""
	var body []string
	flush := func() error {
		text := strings.TrimRight(strings.Join(body, "\n"), "\n")
		if strings.TrimSpace(text) == "" {
			text = "" // a whitespace-only section body is an empty section
		}
		switch section {
		case "":
			// header handled line by line
		case "%help":
			r.Help = strings.TrimSpace(dedent(text))
		case "%labels":
			for _, l := range strings.Split(text, "\n") {
				l = strings.TrimSpace(l)
				if l == "" {
					continue
				}
				fields := strings.Fields(l)
				if len(fields) < 2 {
					return fmt.Errorf("recipe: %%labels line %q needs a key and a value", l)
				}
				r.Labels[fields[0]] = strings.Join(fields[1:], " ")
			}
		case "%environment":
			r.Environment = dedent(text)
		case "%files":
			for _, l := range strings.Split(text, "\n") {
				l = strings.TrimSpace(l)
				if l == "" {
					continue
				}
				fields := strings.Fields(l)
				switch len(fields) {
				case 1:
					r.Files = append(r.Files, FilePair{Src: fields[0], Dst: fields[0]})
				case 2:
					r.Files = append(r.Files, FilePair{Src: fields[0], Dst: fields[1]})
				default:
					return fmt.Errorf("recipe: %%files line %q has too many fields", l)
				}
			}
		case "%post":
			if p := dedent(text); p != "" {
				r.Posts = append(r.Posts, p)
			}
		case "%runscript":
			r.Runscript = dedent(text)
		case "%test":
			r.Test = dedent(text)
		default:
			return fmt.Errorf("recipe: unknown section %q", section)
		}
		body = body[:0]
		return nil
	}
	for _, raw := range lines {
		trimmed := strings.TrimSpace(raw)
		if strings.HasPrefix(trimmed, "%") {
			name := strings.Fields(trimmed)[0]
			known := false
			for _, s := range sectionNames {
				if name == s {
					known = true
					break
				}
			}
			if !known {
				return nil, fmt.Errorf("recipe: unknown section %q", name)
			}
			if err := flush(); err != nil {
				return nil, err
			}
			section = name
			continue
		}
		if section == "" {
			if trimmed == "" || strings.HasPrefix(trimmed, "#") {
				continue
			}
			key, val, ok := strings.Cut(trimmed, ":")
			if !ok {
				return nil, fmt.Errorf("recipe: header line %q is not 'Key: value'", trimmed)
			}
			key = strings.TrimSpace(key)
			val = strings.TrimSpace(val)
			switch strings.ToLower(key) {
			case "bootstrap":
				r.Bootstrap = val
			case "from":
				r.From = val
			default:
				return nil, fmt.Errorf("recipe: unknown header %q", key)
			}
			continue
		}
		body = append(body, raw)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if r.Bootstrap == "" {
		return nil, fmt.Errorf("recipe: missing Bootstrap header")
	}
	if r.From == "" {
		return nil, fmt.Errorf("recipe: missing From header")
	}
	return r, nil
}

// dedent removes the longest common leading whitespace of non-empty lines.
func dedent(text string) string {
	lines := strings.Split(text, "\n")
	prefix := ""
	first := true
	for _, l := range lines {
		if strings.TrimSpace(l) == "" {
			continue
		}
		indent := l[:len(l)-len(strings.TrimLeft(l, " \t"))]
		if first {
			prefix = indent
			first = false
			continue
		}
		for !strings.HasPrefix(l, prefix) {
			prefix = prefix[:len(prefix)-1]
		}
	}
	if prefix == "" {
		return text
	}
	for i, l := range lines {
		lines[i] = strings.TrimPrefix(l, prefix)
	}
	return strings.Join(lines, "\n")
}

// String renders the recipe back to canonical definition-file syntax.
func (r *Recipe) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Bootstrap: %s\nFrom: %s\n", r.Bootstrap, r.From)
	writeSection := func(name, text string) {
		if text == "" {
			return
		}
		b.WriteString("\n" + name + "\n")
		for _, l := range strings.Split(text, "\n") {
			b.WriteString("    " + l + "\n")
		}
	}
	writeSection("%help", r.Help)
	if len(r.Labels) > 0 {
		b.WriteString("\n%labels\n")
		keys := make([]string, 0, len(r.Labels))
		for k := range r.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "    %s %s\n", k, r.Labels[k])
		}
	}
	writeSection("%environment", r.Environment)
	if len(r.Files) > 0 {
		b.WriteString("\n%files\n")
		for _, fp := range r.Files {
			fmt.Fprintf(&b, "    %s %s\n", fp.Src, fp.Dst)
		}
	}
	for _, p := range r.Posts {
		writeSection("%post", p)
	}
	writeSection("%runscript", r.Runscript)
	writeSection("%test", r.Test)
	return b.String()
}
