package apps

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/ctmc"
	"repro/internal/pepa"
	"repro/internal/pepa/derive"
	"repro/internal/query"
)

// MCApp is the name of the CSL-style model checker — the fourth
// containerized tool, implementing the paper's §IV future work of
// containerizing further process-algebra tooling.
const MCApp = "pepa-mc"

// ModelChecker evaluates a file of CSL-style properties against a PEPA
// model:
//
//	pepa-mc <model-file> <properties-file>
//
// The properties file holds one property per line (see internal/query);
// blank lines and '#' comments are ignored. Output lists each property
// with its verdict and measured value, followed by a summary line. A
// failing property is not an execution error — the summary reports it —
// but unparsable properties are.
func ModelChecker(args []string, fs fsReader, out *bytes.Buffer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: pepa-mc <model-file> <properties-file>")
	}
	src, err := fs.ReadFile(args[0])
	if err != nil {
		return err
	}
	propData, err := fs.ReadFile(args[1])
	if err != nil {
		return err
	}
	m, err := pepa.Parse(string(src))
	if err != nil {
		return err
	}
	if res := pepa.Check(m); res.Err() != nil {
		return res.Err()
	}
	ss, err := derive.Explore(m, derive.Options{})
	if err != nil {
		return err
	}
	chain := ctmc.FromStateSpace(ss)

	var props []string
	for _, line := range strings.Split(string(propData), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		props = append(props, line)
	}
	if len(props) == 0 {
		return fmt.Errorf("pepa-mc: no properties in %s", args[1])
	}
	results, err := query.CheckAll(ss, chain, props)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "model checking %d propert(ies) over %d states\n", len(results), ss.NumStates())
	holds := 0
	for _, r := range results {
		fmt.Fprintln(out, r)
		if r.Holds {
			holds++
		}
	}
	fmt.Fprintf(out, "%d/%d properties hold\n", holds, len(results))
	return nil
}

// fsReader is the subset of vfs.FS the checker needs; declaring it here
// keeps ModelChecker trivially testable.
type fsReader interface {
	ReadFile(path string) ([]byte, error)
}
