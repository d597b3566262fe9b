//! Blocking client for the `jt serve` line protocol: one request line out,
//! `ok <n>` plus `n` payload lines (or `err <message>`) back.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A request that takes this long has failed; the benchmark must
        // end within its time limit whatever the server does.
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Send one request; `Ok(payload lines)` on `ok`, `Err(message)` on
    /// `err`, a malformed header, or a socket failure.
    pub fn request(&mut self, line: &str) -> Result<Vec<String>, String> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out).map_err(|e| e.to_string())?;
        let header = self.read_line()?;
        if let Some(msg) = header.strip_prefix("err") {
            return Err(msg.trim().to_string());
        }
        let n: usize = header
            .strip_prefix("ok ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("bad response header {header:?}"))?;
        (0..n).map(|_| self.read_line()).collect()
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(line.trim_end_matches(['\n', '\r']).to_string()),
            Err(e) => Err(e.to_string()),
        }
    }
}
