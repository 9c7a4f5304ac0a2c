package obs

import (
	"fmt"
	"strings"
)

// WriteTable writes an aligned plain-text table to sb: the header, a
// dashed rule, then one line per row. Each column is as wide as its
// widest cell, and columns are separated by two spaces.
func WriteTable(sb *strings.Builder, header []string, rows [][]string) {
	widths := make([]int, len(header))
	measure := func(cells []string) {
		for i, c := range cells {
			widths[i] = max(widths[i], len(c))
		}
	}
	measure(header)
	for _, r := range rows {
		measure(r)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
}
