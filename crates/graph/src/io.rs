//! Edge-list I/O.
//!
//! Format: one `u v` pair of node ids per line, whitespace-separated;
//! lines starting with `#` or `%` are comments (the convention used by both
//! SNAP and network-repository, the paper's data sources). Node ids need
//! not be dense; they are remapped to `0..n` on read.

use crate::{Graph, NodeId};
use sgr_util::FxHashMap;
use std::io::{BufRead, Write};
use std::path::Path;

/// Errors arising while reading an edge list.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line could not be parsed; carries line number (1-based) and text.
    Parse(usize, String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse(line, text) => write!(f, "parse error at line {line}: {text:?}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Reads an edge list from a reader, remapping arbitrary ids to dense
/// `0..n` ids in order of first appearance. Returns the graph and
/// `mapping[new_id] = original_id`.
///
/// Lines are read into one reused buffer and end at `\n` or `\r\n`, as
/// [`BufRead::lines`] splits them; a parse error carries the 1-based line
/// number (comment and blank lines count) and the line without its
/// ending.
pub fn read_edge_list<R: BufRead>(mut reader: R) -> Result<(Graph, Vec<u64>), IoError> {
    let mut remap: FxHashMap<u64, NodeId> = FxHashMap::default();
    let mut mapping: Vec<u64> = Vec::new();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut intern = |raw: u64| {
        *remap.entry(raw).or_insert_with(|| {
            mapping.push(raw);
            (mapping.len() - 1) as NodeId
        })
    };
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        if line.ends_with('\n') {
            line.pop();
            if line.ends_with('\r') {
                line.pop();
            }
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parsed = match (it.next(), it.next()) {
            (Some(a), Some(b)) => a.parse::<u64>().ok().zip(b.parse::<u64>().ok()),
            _ => None,
        };
        let Some((a, b)) = parsed else {
            return Err(IoError::Parse(lineno, line));
        };
        let u = intern(a);
        let v = intern(b);
        edges.push((u, v));
    }
    Ok((Graph::from_edges(mapping.len(), &edges), mapping))
}

/// Reads an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<(Graph, Vec<u64>), IoError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(std::io::BufReader::new(file))
}

/// Writes the graph as an edge list (dense ids, one edge per line,
/// `u <= v`).
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "# nodes {} edges {}", g.num_nodes(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(writer, "{u} {v}")?;
    }
    Ok(())
}

/// Writes the graph as an edge list to a file path.
pub fn write_edge_list_file<P: AsRef<Path>>(g: &Graph, path: P) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(g, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (h, mapping) = read_edge_list(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(h.num_nodes(), 4);
        assert_eq!(h.num_edges(), 5);
        assert_eq!(h.num_self_loops(), 1);
        assert_eq!(mapping.len(), 4);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n% another comment\n\n10 20\n20 30\n";
        let (g, mapping) = read_edge_list(std::io::Cursor::new(text)).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(mapping, vec![10, 20, 30]);
    }

    #[test]
    fn sparse_ids_are_remapped_densely() {
        let text = "1000000 5\n5 70\n";
        let (g, mapping) = read_edge_list(std::io::Cursor::new(text)).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(mapping, vec![1_000_000, 5, 70]);
        // Node "5" got id 1 and has degree 2.
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn parse_errors_are_reported_with_line_numbers() {
        let text = "1 2\nnot numbers\n";
        match read_edge_list(std::io::Cursor::new(text)) {
            Err(IoError::Parse(2, _)) => {}
            other => panic!("expected parse error at line 2, got {other:?}"),
        }
        let text = "1\n";
        assert!(matches!(
            read_edge_list(std::io::Cursor::new(text)),
            Err(IoError::Parse(1, _))
        ));
    }

    #[test]
    fn crlf_lines_read_like_lf_lines() {
        let text = "% header\r\n10 20\r\n\r\n  20 30  \r\n30 10";
        let (g, mapping) = read_edge_list(std::io::Cursor::new(text)).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(mapping, vec![10, 20, 30]);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn parse_error_after_a_comment_counts_every_line() {
        // Comment and blank lines count toward the line number, and the
        // error carries the line as read, without its line ending.
        let text = "# nodes 3\n1 2\n\n# more\n 2 x \r\n3 1\n";
        match read_edge_list(std::io::Cursor::new(text)) {
            Err(IoError::Parse(5, line)) => assert_eq!(line, " 2 x "),
            other => panic!("expected parse error at line 5, got {other:?}"),
        }
        let text = "% c\n1 2 extra\n4\n";
        match read_edge_list(std::io::Cursor::new(text)) {
            Err(e @ IoError::Parse(3, _)) => {
                assert_eq!(e.to_string(), "parse error at line 3: \"4\"")
            }
            other => panic!("expected parse error at line 3, got {other:?}"),
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("sgr_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        write_edge_list_file(&g, &path).unwrap();
        let (h, _) = read_edge_list_file(&path).unwrap();
        assert_eq!(h.num_nodes(), 3);
        assert_eq!(h.num_edges(), 2);
        std::fs::remove_file(&path).ok();
    }
}
