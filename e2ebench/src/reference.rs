//! Reference tables: slicing one table's section out of a multi-table
//! `repro` output file.

/// The section of `text` that starts at the first line beginning with
/// `title_prefix` and runs up to (not including) the next blank line —
/// exactly the lines `repro` prints for one table. `None` when no line
/// starts with the prefix.
pub fn section(text: &str, title_prefix: &str) -> Option<String> {
    let mut lines = text.lines().skip_while(|l| !l.starts_with(title_prefix));
    let first = lines.next()?;
    let mut out = String::from(first);
    for line in lines.take_while(|l| !l.trim().is_empty()) {
        out.push('\n');
        out.push_str(line);
    }
    Some(out)
}

/// A rendered table in the form [`section`] returns: trailing newlines
/// dropped, so the two compare byte for byte.
pub fn normalize(rendered: &str) -> &str {
    rendered.trim_end_matches('\n')
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUTPUT: &str = "Tuning — sweep\n\
                          g   x1\n\
                          ----\n\
                          a    1\n\
                          \n\
                          Table 4.1 — GOLA (start density sum 2481)\n\
                          g function   6 sec\n\
                          -------------------\n\
                          Goto           591\n\
                          \n\
                          Table 4.2(a) — GOLA from Goto\n\
                          g function   6 sec\n\
                          [COHO83a]        8\n";

    #[test]
    fn extracts_one_table_up_to_the_blank_line() {
        assert_eq!(
            section(OUTPUT, "Table 4.1 ").as_deref(),
            Some(
                "Table 4.1 — GOLA (start density sum 2481)\n\
                 g function   6 sec\n\
                 -------------------\n\
                 Goto           591"
            )
        );
    }

    #[test]
    fn last_section_runs_to_end_of_file() {
        assert_eq!(
            section(OUTPUT, "Table 4.2(a) ").as_deref(),
            Some("Table 4.2(a) — GOLA from Goto\ng function   6 sec\n[COHO83a]        8")
        );
    }

    #[test]
    fn prefix_must_start_the_line() {
        assert_eq!(section(OUTPUT, "Table 4.2(b) "), None);
        assert_eq!(section(OUTPUT, "GOLA"), None);
        // "Table 4.1 " must not match "Table 4.10 ...".
        assert_eq!(section("Table 4.10 — x\nrow\n", "Table 4.1 "), None);
    }

    #[test]
    fn normalize_matches_a_printed_table() {
        let printed = "Table 4.1 — GOLA\nGoto  591\n\n";
        assert_eq!(normalize(printed), section(printed, "Table 4.1 ").unwrap());
    }

    #[test]
    fn committed_reference_has_every_scale_one_table() {
        let text = include_str!("../../results/repro_output.txt");
        for prefix in [
            "Table 4.1 ",
            "Table 4.2(b) ",
            "Table 4.2(c) ",
            "Table 4.2(d) ",
        ] {
            let s = section(text, prefix).unwrap_or_else(|| panic!("{prefix} missing"));
            assert!(s.lines().count() > 10, "{prefix}: {s}");
        }
        let own = include_str!("../reference/table4.2b-scale10-seed1985.txt");
        let s = section(own, "Table 4.2(b) ").expect("own reference");
        assert_eq!(s.lines().count(), 16, "title, header, rule, 13 rows");
    }
}
