(* Test helper for test_util: in a fresh process, where nothing has
   checksummed anything yet, two domains compute a CRC and frame a
   protocol message at the same instant. Exits 0 iff both succeed with
   identical, correct results; an exception escaping either domain
   fails the process. *)

module Crc = Pruning_util.Crc
module Proto = Pruning_fi.Proto

let () =
  let ready = Atomic.make 0 in
  let go () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    (Crc.string "123456789", Proto.encode_frame "payload")
  in
  let other = Domain.spawn go in
  let mine = go () in
  let theirs = Domain.join other in
  exit (if mine = theirs && fst mine = 0xCBF43926 then 0 else 1)
