/* A per-line scanner treats this interior as code:
let t = Instant::now();
x.unwrap();
*/
pub fn after() -> u32 {
    /* " */ 7
}
